"""The rational bases that ``bergman.BasisSpec.functions`` built, kept as the
oracle for ``bergman.default_basis`` and as the builder of the tests' own
bases."""

from berglab.quadrature import RationalFunction


def spec_functions(degree=8, pole_centers=(), pole_order=2, pole_scales=()):
    """Polynomials up to ``degree`` plus poles of orders 1..pole_order at the
    listed centers, each with coefficient scale**(order-1); the scales
    default to 1."""
    scales = pole_scales or tuple(1.0 for _ in pole_centers)
    fns = [RationalFunction.monomial(j) for j in range(degree + 1)]
    for c, s in zip(pole_centers, scales):
        for m in range(1, pole_order + 1):
            fns.append(RationalFunction.pole(complex(c), m, coeff=s ** (m - 1)))
    return fns
