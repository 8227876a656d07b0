"""Tour of the exact number formulas.

The central object is the super Catalan number
T(m,n) = (2m)! (2n)! / (2 m! n! (m+n)!), an integer for every (m,n)
except (0,0).  Everything below is exact big-integer arithmetic.
"""

from supercat import (
    ballot_number,
    ballot_sum_identity,
    ballot_sum_terms,
    catalan,
    super_catalan_s,
    super_catalan_t,
    verify,
)

print("A corner of the T(m,n) table (rows m, columns n):")
for m in range(6):
    cells = []
    for n in range(8):
        cells.append("-" if (m, n) == (0, 0) else str(super_catalan_t(m, n)))
    print("  " + "\t".join(cells))

print()
print("Row m=1 is the Catalan sequence:")
print(" ", [super_catalan_t(1, n) for n in range(10)])
print(" ", [catalan(n) for n in range(10)])

print()
print("S(m,n) = 2 T(m,n) is even everywhere away from the origin, e.g.")
print("  S(4,7) =", super_catalan_s(4, 7), "= 2 *", super_catalan_t(4, 7))

print()
print("The doubling recurrence 4T(m,n) = T(m+1,n) + T(m,n+1), checked on a 30x30 grid:")
report = verify.verify_rubenstein(30, 30)
print(f"  {report.cases} cells, failures: {len(report.failures)}")

print()
print("T(m,n) as an alternating sum of ballot-number products, m=3, n=5:")
for r, product_form, binomial_form in ballot_sum_terms(3, 5):
    sign = "+" if r % 2 else "-"
    print(f"  {sign} B(3,{r})*B(5,{r}) = {product_form}   (binomial form: {binomial_form})")
print("  total:", ballot_sum_identity(3, 5), "= T(3,5) =", super_catalan_t(3, 5))

print()
print("Ballot numbers themselves count one-sided paths, e.g. B(5, 2) =", ballot_number(5, 2))
