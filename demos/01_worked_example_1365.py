"""Walk through the full machinery on the worked field d = 1365 = 3*5*7*13.

K = Q(sqrt(1365)), K' = Q(sqrt(2730)), K1 = Q(sqrt2, sqrt1365).  Every
claim printed here is recomputed from scratch: genus theory for the
2-ranks, Redei-Reichardt counts for 2-elementariness, continued fractions
for the units, integer parity vectors for the Hasse index, Kuroda's formula
for #A(K1), and the indefinite-form oracle as the independent referee.
"""

from twoclass import (
    first_layer_rank,
    genus_field,
    hasse_unit_index,
    kuroda_order,
    narrow_class_group,
    narrow_genus_field,
    ordinary_class_group,
    predict,
    ramified_place_count,
    s1_decompositions,
    s2_decompositions,
    structure_condition_ppqq,
    two_sylow,
    verify_against_oracle,
)

d = 1365

print(f"d = {d} = 3 * 5 * 7 * 13, residues mod 8: (3, 5, 7, 5)")
print()

print("-- genus theory --")
print("narrow genus field:", narrow_genus_field(d))
print("genus field:       ", genus_field(d))
print("genus field of K': ", genus_field(2 * d))
print()

print("-- Redei-Reichardt --")
s1 = s1_decompositions(d)
print(f"#S1(K) = {len(s1)}:", [dec.as_pair() for dec in s1])
print(f"#S2(K) = {len(s2_decompositions(d))}  (so A+(K) is 2-elementary)")
print(f"#S1(K') = {len(s1_decompositions(8 * d))}")
print(f"#S2(K') = {len(s2_decompositions(8 * d))}")
print()

print("-- symbol criterion for the (5,5,7,3) shape --")
match = structure_condition_ppqq(d)
print("matched:", match)
print()

print("-- the oracle's view (class groups from quadratic forms) --")
narrow = narrow_class_group(d)
print("narrow class group of K: ", narrow)
ordinary = ordinary_class_group(d)
print("ordinary class group:    ", ordinary, "->", two_sylow(ordinary))
ordinary_prime = ordinary_class_group(8 * d)
print("ordinary group of K':    ", ordinary_prime, "->", two_sylow(ordinary_prime))
print()

print("-- the first tower layer K1 --")
print("ramified places of Q(sqrt2) in K1:", ramified_place_count(d))
print("rank A(K1) =", first_layer_rank(d))
Q = hasse_unit_index(d)
print("Hasse unit index Q(K1) =", Q)
hK = two_sylow(ordinary).order
hKp = two_sylow(ordinary_prime).order
order = kuroda_order(Q, hK, hKp, 1)
print(f"Kuroda: #A(K1) = (1/4) * {Q} * {hK} * {hKp} * 1 = {order}")
print()

print("-- assembled prediction and verification --")
report = predict(d)
print("structures:", report.structure_K.value, report.structure_Kprime.value,
      report.structure_K1.value)
print("tower claim:", report.tower)
comparison = verify_against_oracle(d)
print("oracle checks all ok:", comparison.ok)
for check in comparison.checks:
    print(f"  {check.name}: predicted {check.predicted}, observed {check.observed}")
