"""
Population values: closed forms against quadrature
==================================================

For the three built-in families the population GIM(v) has closed forms
built from extreme-value moments (harmonic numbers for the exponential,
a product of Pareto means for the Pareto, a normal-cdf expression for
the lognormal pair).  The library can also ignore the closed forms and
integrate the quantile function on a graded panel mesh; the two routes
agreeing is the cheapest full-stack check there is.
"""

from gimtools import Exponential, Lognormal, Pareto, theoretical_gim

families = [
    Exponential(rate=1.0),
    Pareto(shape=3.0, scale=1.0),
    Lognormal(meanlog=0.0, sdlog=0.5),
]

print("population GIM(v) by closed form (quadrature agrees to 1e-7)\n")
header = "family       params             " + "".join(f"      v={v}" for v in (2, 3, 4))
print(header)
for dist in families:
    row = f"{dist.name:<13}{dist.params_label():<19}"
    for v in (2, 3, 4):
        closed = theoretical_gim(dist, v)
        quad = theoretical_gim(dist, v, force_quadrature=True)
        row += f"  {closed:.5f}"
        assert abs(closed - quad) < 1e-7, (dist.name, v)
    print(row)

# Scale never matters: inequality is a ratio.
assert abs(
    theoretical_gim(Exponential(0.01), 2) - theoretical_gim(Exponential(40.0), 2)
) < 1e-12

# Exponential anchors worth knowing by heart: GIM(2) = 1/2, GIM(3) = 9/13.
print("\nexponential GIM(2) =", theoretical_gim(Exponential(1.0), 2))
print("exponential GIM(3) =", theoretical_gim(Exponential(1.0), 3), "= 9/13")

# Heavier Pareto tails (smaller shape) push inequality up.
print("\nPareto GIM(2) as the tail thickens:")
for shape in (5.0, 3.0, 2.0, 1.5):
    print(f"  shape {shape}: {theoretical_gim(Pareto(shape, 1.0), 2):.4f}")
