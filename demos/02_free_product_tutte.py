"""Free products and the Tutte-coefficient convolution.
=======================================================

The free product M box N is the freest matroid that restricts to M and
contracts to N; on cyclic flats it is a simple splicing of the two
lattices.  Its Whitney rank generating matrix is a convolution of the
factors' matrices, which this script checks against brute-force subset
enumeration.

Run with:  python demos/02_free_product_tutte.py
"""

import cycflats as cf
from cycflats.tutte import rank_gen_brute, rank_gen_convolution, tutte_from_rank_gen


def show_poly(terms):
    parts = []
    for (p, q), c in sorted(terms.items()):
        mono = "".join(s for s in (f"x^{p}" if p else "", f"y^{q}" if q else "") if s)
        parts.append(f"{c}{mono}" if mono else str(c))
    return " + ".join(parts) if parts else "0"


# ----------------------------------------------------------------------
# The smallest interesting case: an isthmus times a loop gives U_{1,2}.
# R(U11) = x + 1,  R(U01) = y + 1,  R(U11 box U01) = x + y + 2.
# ----------------------------------------------------------------------

u11 = cf.uniform(1, 1, ["a"])
u01 = cf.uniform(0, 1, ["b"])
prod = cf.free_product(u11, u01)
print("U11 box U01:")
print(f"  isomorphic to U_1,2: {cf.is_isomorphic(prod, cf.uniform(1, 2))[0]}")

conv = rank_gen_convolution(rank_gen_brute(u11), rank_gen_brute(u01))
print(f"  R by convolution: {show_poly({(i, j): c for i, j, c in conv.terms()})}")
print(f"  matches brute force: {conv == rank_gen_brute(prod)}")

# ----------------------------------------------------------------------
# A bigger pair: M(K4) box U_2,4.  The convolution touches only the
# small coefficient grids, never the 2^10 subsets of the product.
# ----------------------------------------------------------------------

mk4 = cf.catalog("mk4")
u24 = cf.relabel(cf.uniform(2, 4), "r:")
big = cf.free_product(mk4, u24)
conv = rank_gen_convolution(rank_gen_brute(mk4), rank_gen_brute(u24))
print(f"\nM(K4) box U24 on {len(big.ground)} elements, rank {big.matroid_rank}:")
print(f"  convolution == brute force: {conv == rank_gen_brute(big)}")
print(f"  Tutte polynomial: {show_poly(tutte_from_rank_gen(conv))}")

# ----------------------------------------------------------------------
# Cross-checks from the closed-form characterizations of the product:
#   r(X u Y) = r_M(X) + r_N(Y) + min{r(M) - r_M(X), nu_N(Y)},
# and X u Y is independent iff X is and nu_N(Y) <= r(M) - |X|.
# ----------------------------------------------------------------------

x = mk4.ground.mask(["12", "13"])
y = u24.ground.mask(["r:e1", "r:e2", "r:e3"])
mask = x | (y << len(mk4.ground))
rx, ry = mk4.rank(x), u24.rank(y)
nu_y = cf.popcount(y) - ry
formula_independent = (mk4.is_independent(x)
                       and nu_y <= mk4.matroid_rank - cf.popcount(x))
print("\nclosed-form oracles on a sample subset pair:")
print(f"  product rank:   {big.rank(mask)}")
print(f"  formula rank:   {rx + ry + min(mk4.matroid_rank - rx, nu_y)}")
print(f"  independence agrees: "
      f"{big.is_independent(mask) == formula_independent}")
