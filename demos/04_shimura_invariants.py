"""Local invariants h(p) of canonical models of quaternionic Shimura curves.

Two closed formulas compute the Petersson-normalized height of two integral
models of the same curve: the canonical model (a Dedekind-zeta formula with
prime terms over the ramification locus) and the optimal, fiberwise-stable
model (a closed-form table row).  Their difference is an exact rational
combination of ln p; rescaled, its coefficients are the local discrepancies
h(p) >= 0, which vanish exactly where the two models agree.

Run:  python demos/04_shimura_invariants.py
"""

from orbiheight import builtin_cases, h_p_map, yuan_height

print(__doc__)

for cid, case in sorted(builtin_cases().items()):
    y = yuan_height(case)
    o = case.optimal
    d = y - o
    hp = h_p_map(case)
    print(f"=== case {cid} (field {case.field_id}, orbifold degree {case.k_degree}) ===")
    print(f"  canonical model  : {y.to_json()}")
    print(f"  optimal model    : {o.to_json()}")
    print(f"  difference       : {d.to_json()}")
    print("  local invariants :", "  ".join(f"h({p}) = {v}" for p, v in hp.items()))
    ev = d.evaluate()
    print(f"  numeric check    : difference evaluates to {ev.value:.12f} (err <= {ev.err:.1e})")
    print()

print("Every constant and Dedekind-zeta term cancels exactly in the difference;")
print("only prime logarithms survive, with small exact rational coefficients.")
print("Nonvanishing h(p) certifies that the canonical model fails to be")
print("fiberwise stable over p (the fibers acquire wild ramification there).")
