"""Reference Hodge decomposition and metric by SVD subspace intersection.

Deliberately separate from the determinant closed form in
``motive_height.hodge``: the pieces H^{r,w-r} = F^r  intersect  conj(F^{w-r})
are found as null spaces of stacked orthonormal bases [U | -W] by
singular-value thresholding, and the metric is assembled from the
construction itself.  For bases b_r of the pieces and s the tensor of their
wedges, s (x) conj(s) is z times the integral generator of
(det Z^n)^{x w}, with

    z = det(B)^w * prod_r lambda_r^{w-r},

B the matrix of all the b_r and lambda_r the wedge coefficient of
conj(b_{w-r}) on b_r, so |s| = |z|^{1/2}.  The reference generator of L(H)
is reached through the transport coefficients mu_r (wedge coefficient of the
level-r reference columns on b_r modulo F^{r+1}):

    |ref| = |s| * prod_r |mu_r|^r.

Only midpoints are used, at ORACLE_BITS with the threshold
2^(-ORACLE_BITS/2), so the answers are plain mpmath numbers good to far more
digits than the 128-bit balls they are compared with.
"""

from mpmath import mp, mpc, mpf, matrix, svd

ORACLE_BITS = 400


def _columns(vectors, n):
    a = matrix(n, len(vectors))
    for j, v in enumerate(vectors):
        for i in range(n):
            a[i, j] = v[i]
    return a


def _orthonormal(a, tol):
    """Orthonormal basis (as an n x rank matrix) of the column span of a."""
    if a.cols == 0:
        return a
    u, s, _ = svd(a)
    keep = sum(1 for i in range(s.rows) if s[i] > tol)
    return _columns([[u[i, j] for i in range(a.rows)] for j in range(keep)], a.rows)


def _intersect(u, w, n, tol):
    """Orthonormal basis of span(u)  intersect  span(w)."""
    uo, wo = _orthonormal(u, tol), _orthonormal(w, tol)
    if uo.cols == 0 or wo.cols == 0:
        return matrix(n, 0)
    stacked = matrix(n, uo.cols + wo.cols)
    for i in range(n):
        for j in range(uo.cols):
            stacked[i, j] = uo[i, j]
        for j in range(wo.cols):
            stacked[i, uo.cols + j] = -wo[i, j]
    _, sig, v = svd(stacked, full_matrices=True)
    null = [i for i in range(stacked.cols) if i >= sig.rows or sig[i] <= tol]
    vectors = [[sum(uo[t, j] * v[i, j].conjugate() for j in range(uo.cols))
                for t in range(n)] for i in null]
    return _orthonormal(_columns(vectors, n), tol) if vectors else matrix(n, 0)


def mid_complex(z):
    """The midpoint of the ComplexBall z as an mpc."""
    return mpc(z.re.mid, z.im.mid)


def _midpoint_columns(h, keep):
    return [[mid_complex(h.basis[i][j]) for i in range(h.n)]
            for j, l in enumerate(h.levels) if keep(l)]


def svd_pieces(h):
    """{r: orthonormal n x h^{r,w-r} basis} for every nonempty piece."""
    with mp.workprec(ORACLE_BITS):
        tol = mpf(2) ** (-ORACLE_BITS // 2)
        w, n = h.weight, h.n
        out = {}
        for r in sorted(set(h.levels)):
            f_r = _columns(_midpoint_columns(h, lambda l: l >= r), n)
            fbar = _columns([[x.conjugate() for x in c]
                             for c in _midpoint_columns(h, lambda l: l >= w - r)], n)
            piece = _intersect(f_r, fbar, n, tol)
            if piece.cols:
                out[r] = piece
        return out


def _wedge(binv, rows, vectors, n):
    """det of the ``rows`` block of the coordinates of ``vectors`` in B."""
    coords = binv * _columns(vectors, n)
    block = matrix(len(rows), len(rows))
    for a, i in enumerate(rows):
        for b in range(len(rows)):
            block[a, b] = coords[i, b]
    return mp.det(block)


def reference_metric(h, pieces=None):
    """|ref| of the reference generator of L(H), as an mpf."""
    if pieces is None:
        pieces = svd_pieces(h)
    with mp.workprec(ORACLE_BITS):
        w, n = h.weight, h.n
        order, vectors = [], []
        for r in sorted(pieces):
            for j in range(pieces[r].cols):
                order.append(r)
                vectors.append([pieces[r][i, j] for i in range(n)])
        if len(vectors) != n:
            raise ValueError("pieces do not span: not pure")
        b = _columns(vectors, n)
        binv = b ** -1
        z = abs(mp.det(b)) ** w
        for r in pieces:
            rows = [i for i, ri in enumerate(order) if ri == r]
            partner = [[x.conjugate() for x in vectors[i]]
                       for i, ri in enumerate(order) if ri == w - r]
            z *= abs(_wedge(binv, rows, partner, n)) ** (w - r)
        metric = mp.sqrt(z)
        for r in pieces:
            if r:
                rows = [i for i, ri in enumerate(order) if ri == r]
                refs = _midpoint_columns(h, lambda l: l == r)
                metric *= abs(_wedge(binv, rows, refs, n)) ** r
        return +metric


def span_residual(basis, vector):
    """|v - Q Q^H v| / |v| for Q an orthonormal basis of a subspace."""
    with mp.workprec(ORACLE_BITS):
        v = _columns([vector], basis.rows)
        resid = v - basis * (basis.H * v)
        return mp.norm(resid) / mp.norm(v)
