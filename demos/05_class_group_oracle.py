"""The indefinite-form class group oracle from the inside.

Reduced forms of a positive nonsquare discriminant fall into rho-cycles;
cycles are the narrow class group elements and Gauss composition is the
group law.  The ordinary group is the quotient by the class of a form
representing -1, which is trivial exactly when the fundamental unit has
norm -1.
"""

from twoclass import (
    IndefiniteForm,
    compose,
    narrow_class_group,
    ordinary_class_group,
    reduce_form,
    reduced_forms,
    two_sylow,
)

D = 40
print(f"reduced forms of D = {D}:")
for f in reduced_forms(D):
    print("  ", f)
g = narrow_class_group(D)
print("narrow class group:", g)
f = next(c for i, c in enumerate(g.classes) if i != g.identity)
print(f"nonprincipal class {f}: square is class",
      g.class_index(compose(f, f)), "(identity is", str(g.identity) + ")")
print()

for D in (60, 1365, 10920, 3320):
    g = narrow_class_group(D)
    o = ordinary_class_group(D)
    print(
        f"D = {D:>6}: h+ = {g.order:>3} {g.structure},"
        f" h = {o.order:>3} {o.structure}, A = {two_sylow(o)}"
    )
print()

f = IndefiniteForm(33, 2, -11)
print(f"a reduction walk: {f} of D = {f.discriminant} -> {reduce_form(f)}")
