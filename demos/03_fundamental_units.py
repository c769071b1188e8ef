"""Fundamental units from periodic continued fractions.

The unit of Q(sqrt(d)) is read off one period of the continued fraction of
sqrt(d) (of (1+sqrt(d))/2 when d = 1 mod 4); its norm is (-1)^period.
Units explode in size: the classical d = 61 and d = 94 examples appear
below, along with the norm statistics over a range.  By Hasse's norm
theorem -1 is a norm from Q(sqrt(d)) exactly when every odd prime dividing
d is 1 mod 4, a condition that norm -1 needs but that does not force it.
"""

from twoclass import factor_squarefree, fundamental_unit, squarefree_range, unit_norm

for d in (2, 3, 5, 10, 13, 61, 94, 1365):
    fu = fundamental_unit(d)
    e = f"({fu.X} + {fu.Y}*sqrt({d}))/2"
    print(f"d = {d:>5}: e = {e}, norm {fu.norm:+d}, period {fu.cf_period}")

print()
print("norm -1 needs every odd prime divisor of d to be 1 mod 4:")
for d in (15, 21, 34, 205):
    odd = [p for p in factor_squarefree(d).primes if p != 2]
    print(
        f"  d = {d:>4}: unit norm {unit_norm(d):+d}, odd primes {odd},"
        f" -1 is a global norm: {all(p % 4 == 1 for p in odd)}"
    )

print()
counts = {1: 0, -1: 0}
biggest = (0, 0)
for fs in squarefree_range(2, 2000):
    fu = fundamental_unit(fs.value)
    counts[fu.norm] += 1
    digits = len(str(fu.X))
    if digits > biggest[1]:
        biggest = (fs.value, digits)
print(f"d < 2000: {counts[-1]} fields with norm -1, {counts[1]} with norm +1")
print(f"largest unit below 2000: d = {biggest[0]} with {biggest[1]} digits")
