"""Reference count tables and the reference inequality system used in tests."""

# D5-hat: alpha -> (n1, n2, n3(tau))
D5HAT_TABLE = [
    ((1, 1, 1, 1, 1, 1), 9, 9, 5),
    ((2, 2, 2, 2, 2, 2), 43, 9, 5),
    ((3, 3, 3, 3, 3, 3), 147, 9, 5),
    ((4, 4, 4, 4, 4, 4), 406, 9, 5),
    ((0, 1, 2, 2, 1, 0), 12, 9, 4),
    ((0, 2, 1, 1, 2, 0), 16, 12, 6),
    ((2, 1, 0, 0, 1, 2), 36, 16, 9),
    ((1, 2, 3, 3, 2, 1), 59, 25, 7),
    ((2, 3, 2, 2, 3, 2), 112, 20, 9),
    ((2, 3, 4, 4, 3, 2), 244, 57, 10),
]

# (6,1)-Sun: alpha (coordinates at vertices 0.1 .. 5.1) -> (n1, n2, n3(tau), n3(rho));
# None marks a cell the reference table leaves blank (alpha not symmetric there).
SUN61_TABLE = [
    ((1, 1, 2, 3, 3, 2), 159, 48, 12, None),
    ((1, 1, 3, 2, 2, 3), 155, 32, 11, None),
    ((2, 2, 2, 4, 4, 2), 396, 30, 11, None),
    ((2, 2, 3, 4, 4, 3), 717, 54, 14, None),
    ((1, 2, 3, 1, 2, 3), 190, 56, None, 25),
    ((2, 1, 3, 2, 1, 3), 190, 56, None, 25),
    ((2, 4, 2, 2, 4, 2), 464, 32, None, 17),
    ((3, 2, 4, 3, 2, 4), 924, 112, None, 32),
    ((2, 2, 2, 2, 2, 2), 129, 19, 10, 12),
    ((3, 3, 3, 3, 3, 3), 571, 20, 10, 12),
]

# (6,2)-Sun at (1,2) x 6 (vertices 0.1, 0.2, 1.1, ..., 5.2): (n1, n2, n3(tau), n3(rho)).
SUN62_ROW = ((1, 2) * 6, 673, 377, 84, 128)

# Example 1 at alpha = (2,3,4,4,3,2): the 9 inequalities in coordinates
# (sigma(x4), sigma(x5), sigma(x6)), each row c meaning c.sigma <= 0.
EXAMPLE1_ROWS = {
    (0, 0, 1), (0, 1, 0), (0, 3, 2), (1, 0, 1), (1, 0, 2),
    (1, 1, 0), (2, 3, 0), (3, 2, 1), (4, 3, 2),
}
