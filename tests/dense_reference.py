"""The dense structure constants of a spec, for the tests' reference sums."""


def structure(spec):
    """c[i][j][l] with [xi_i, xi_j] = sum_l c[i][j][l] xi_l, zeros included."""
    n = spec.dim
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(spec.brackets):
        for j, vec in enumerate(row):
            for l, v in vec:
                c[i][j][l] = v
    return c
