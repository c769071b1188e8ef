"""The Redei-Reichardt counts against the form class group oracle.

#S1(D) counts splittings of a fundamental discriminant into two
discriminants and equals #(A+/2A+); #S2(D) keeps the splittings whose
halves are mutual residues and equals #(2A+/4A+).  The table below
recomputes both sides independently for a window of discriminants.
"""

from twoclass import splitting_sets, squarefree_range
from twoclass.forms import class_group_summary

print(f"{'D':>6} {'#S1':>4} {'#A+[2]':>7} {'#S2':>4} {'#A+[4]/#A+[2]':>14} {'h+':>4}")
mism = 0
for fs in squarefree_range(2, 300):
    D = fs.value if fs.value % 4 == 1 else 4 * fs.value
    summ = class_group_summary(D)
    # #A+[2] = 2^rank and #(2A+/4A+) = #A+[4]/#A+[2] = 2^four_rank
    a2, a4_over_a2 = 2**summ.narrow.rank, 2**summ.narrow.four_rank
    s1, s2 = map(len, splitting_sets(D))
    flag = "" if (s1, s2) == (a2, a4_over_a2) else "  <- MISMATCH"
    mism += bool(flag)
    print(
        f"{D:>6} {s1:>4} {a2:>7} {s2:>4}"
        f" {a4_over_a2:>14} {summ.h_narrow:>4}{flag}"
    )
print()
print("mismatches:", mism)

# the identity is exact over the whole desk range; spot-check a slice
bad = []
for fs in squarefree_range(300, 3000):
    D = fs.value if fs.value % 4 == 1 else 4 * fs.value
    narrow = class_group_summary(D).narrow
    s1, s2 = splitting_sets(D)
    if len(s1) != 2**narrow.rank:
        bad.append(D)
    if len(s2) != 2**narrow.four_rank:
        bad.append(D)
print("exceptions in 300 <= d < 3000:", bad)
