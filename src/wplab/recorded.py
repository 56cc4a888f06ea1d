"""
Constants recorded from the reference grid runs.

Each value was produced once by the corresponding oracle sweep at budget
18 (digits 40) and is frozen here; re-runs must reproduce the measured
quantities within the stated tolerances, and the PASS columns of the lab
experiments are checked against these caps.
"""

# max over the budget-18 grid of eval(V_{g,n}) sqrt(2g-2+n) /
# ((2g-3+n)! (4 pi^2)^(2g-3+n)); the max sits at (0,3) where it is 1.
COR1_RATIO_CAP = 1.0

# fitted constant in |(2g-2+n) V_{g,n}/V_{g,n+1} - 1/(4 pi^2)|
#   <= MZ_C2_FITTED * n / (2g-2+n), budget-18 grid, n >= 1
MZ_C2_FITTED = 0.008443431970194815

# fitted constant on the n = 1, g = 3..7 subgrid alone
MZ_C2_FITTED_N1 = 0.00785040898440564

# cap on sqrt(g) * pvol2_sum(g, n, 1/20) over the full budget-18 grid
# (max at (1,18), far outside the n ~ sqrt(g) regime of the estimate)
PVOL2_SQRTG_CAP = 71.93853790904635

# same cap restricted to the regime slice n <= 2 sqrt(g); max at (4,4)
PVOL2_SQRTG_REGIME_CAP = 1.139152426360079

# cap on lhs/rhs in the split-volume comparison over the budget-18 grid;
# max at (g,n) = (2,0), m = 1, split (0,3 | 0,3)
LRATIO_CAP = 0.20899988672735265

# minimal C > 1 with 1/(C 4^i) < a_{i+1} - a_i < C/4^i for 0 <= i <= 40
A_GAP_MIN_C = 3.101092193460861

# cap on (1/k) sum_{L=1}^{M} (L+k) (a_{L+k} - a_L) over k <= 10, M <= 200
A_PARTIAL_SUM_RATIO_CAP = 0.4275329665758868

# caps on the normalized drop-an-index and one-minus-ratio bracket
# differences over the n <= sqrt(g) signatures with |d| <= 6; both peak
# at (2,1) with d = (3)
DROP_INDEX_CAP = 0.08900127666057636
ONE_MINUS_RATIO_CAP = 0.08900127666057638

# largest-g exact ratios V^2/(V V) on the budget-18 grid: n -> (g, value)
R_LARGEST = {
    1: (6, 0.9250208637499677),
    2: (6, 0.9302511995944353),
    3: (5, 0.9220879170973015),
}
