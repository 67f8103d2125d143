"""Hand-checked expected values and small helpers shared by several test modules."""


def terms_from(x_map):
    """{x: {q: c}} -> sparse (x, q) -> c dict."""
    return {(x, q): c for x, qs in x_map.items() for q, c in qs.items() if c}


def q_coefficients(poly, x_degree):
    """q-degree -> coefficient at one x-degree of a (x, q) -> c mapping."""
    return {q: c for (x, q), c in poly.items() if x == x_degree}


def triangle_csv(rows):
    """Triangle rows as the CSV text that ``tnk --crosscheck`` reads."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


# bivariate (descents, weight) polynomials for orders 3..6
E3 = terms_from({0: {0: 1}, 1: {1: 1, 0: 3}, 2: {0: 1}})
E4 = terms_from(
    {
        0: {0: 1},
        1: {2: 1, 1: 3, 0: 7},
        2: {2: 1, 1: 4, 0: 6},
        3: {0: 1},
    }
)
E5 = terms_from(
    {
        0: {0: 1},
        1: {3: 1, 2: 3, 1: 7, 0: 15},
        2: {4: 1, 3: 4, 2: 11, 1: 25, 0: 25},
        3: {3: 1, 2: 5, 1: 10, 0: 10},
        4: {0: 1},
    }
)
E6 = terms_from(
    {
        0: {0: 1},
        1: {4: 1, 3: 3, 2: 7, 1: 15, 0: 31},
        2: {6: 1, 5: 4, 4: 11, 3: 31, 2: 58, 1: 107, 0: 90},
        3: {6: 1, 5: 5, 4: 16, 3: 34, 2: 76, 1: 105, 0: 65},
        4: {4: 1, 3: 6, 2: 15, 1: 20, 0: 15},
        5: {0: 1},
    }
)

# heads of the stabilized coefficient series (every threshold <= 10)
W_SERIES = {
    1: (1, 3, 7, 15, 31, 63),
    2: (1, 4, 11, 31, 65, 157),
    3: (1, 5, 16, 41, 112, 244),
    4: (1, 6, 22, 63, 155, 393),
}

# two-kind partition triangle, rows n = 0..10 (A256193)
TRIANGLE_10 = [
    [1],
    [1, 1],
    [2, 3, 1],
    [3, 6, 4, 1],
    [5, 12, 11, 5, 1],
    [7, 20, 24, 16, 6, 1],
    [11, 35, 49, 41, 22, 7, 1],
    [15, 54, 89, 91, 63, 29, 8, 1],
    [22, 86, 158, 186, 155, 92, 37, 9, 1],
    [30, 128, 262, 351, 342, 247, 129, 46, 10, 1],
    [42, 192, 428, 635, 700, 590, 376, 175, 56, 11, 1],
]

# per-partition split of T(8, 5) = 92
T85_CONTRIBUTIONS = [
    ((4, 1, 1, 1, 1), 1),
    ((3, 2, 1, 1, 1), 1),
    ((3, 1, 1, 1, 1, 1), 6),
    ((2, 2, 2, 1, 1), 1),
    ((2, 2, 1, 1, 1, 1), 6),
    ((2, 1, 1, 1, 1, 1, 1), 21),
    ((1, 1, 1, 1, 1, 1, 1, 1), 56),
]

# the seven admissible stems for (n, d) = (9, 5), their tree counts, and
# their partition images
STEMS_9_5 = [
    ((1, 2, 3, 4), 56, (1, 1, 1, 1, 1, 1, 1, 1)),
    ((1, 2, 3, 5), 21, (2, 1, 1, 1, 1, 1, 1)),
    ((1, 2, 3, 6), 6, (3, 1, 1, 1, 1, 1)),
    ((1, 2, 3, 7), 1, (4, 1, 1, 1, 1)),
    ((1, 2, 4, 5), 6, (2, 2, 1, 1, 1, 1)),
    ((1, 2, 4, 6), 1, (3, 2, 1, 1, 1)),
    ((1, 3, 4, 5), 1, (2, 2, 2, 1, 1)),
]
