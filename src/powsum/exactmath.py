"""The ``binomial`` alias of ``math.comb``, and nothing else.

No package module imports this one: the package calls ``math.comb``, and
the closed form's difference table, ``signed_differences``, lives in
``powsum.coeffs``. The alias stays only because ``bench/traced.py``, its
only importer besides its own test, imports it by this name. ROADMAP
item 1 releases that import, and the module is deleted then.
"""

import math

# Binomial coefficient C(n, k), which is 0 for k > n.
binomial = math.comb
