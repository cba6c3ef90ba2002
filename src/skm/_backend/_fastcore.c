/* Compiled inner loops: the farthest-first scan, the kernel sums and the
 * two fits, two walks of one fit step that end by solving for the weights.
 * The signatures match skm._backend._numpy_impl exactly.
 *
 * The scan reads a coordinate-major (d, n) copy of the points in tiles of
 * TILE points. For each tile it forms the squared distances to the new
 * center in a TILE-double buffer, lowers a buffer of distances to the
 * chosen set in place and takes the tile's farthest point, so a
 * farthest-first step writes each distance once. The tile's maximum is
 * taken over the int64 bit patterns of the distances, which order as the
 * non-negative doubles do and which gcc vectorises; a bare scan flags a
 * NaN of either sign in the same pass and raises. In a fit step the
 * scan then applies the shape to the tile's distances in place while they
 * are in L1 and sums it, which gives the kernel row mean of the new
 * center from the same pass. The distances sum the coordinates in the
 * order k = 0..d-1, as the numpy scan does, so both backends pick the same
 * points.
 *
 * The kernel sums write c * sum_j shape(||x_i - y_j||^2) coef[j, q] into
 * out[i, q] of the (nx, p) out for a (ny, p) coef, in one pass over tiles of ys: the
 * rows of ys and of coef are copied TILE at a time into a coordinate-major
 * scratch, each x row's distances to the tile go into one row buffer, the
 * shape is applied in place and the row is dotted with each coef column in
 * 8 fixed partial sums. The distances sum the coordinates in the order k = 0..d-1 as
 * scipy's cdist "sqeuclidean" does, with floating-point contraction off,
 * so they are bit-identical to cdist's. The loops are cloned for AVX-512
 * and AVX2, picked at load time. On x86-64 glibc the shape calls the
 * vector exp and pow of libmvec, so kernel values differ from the numpy
 * backend's in the last bits, and between the AVX-512, AVX2 and SSE2
 * clones too.
 *
 * The fit step is one step of partial pivoted Cholesky: the candidate's
 * Gram row against the kept points is formed with the same distance, shape
 * and dot code and solved forward against the packed lower factor L, row i
 * at offset i(i+1)/2, row after row with the same 8-partial-sum dot, and
 * the candidate is kept when its pivot passes a threshold. Only a kept
 * candidate then gets the scan with the shape sum, v_m and E_m, the
 * radius and the step's time. The greedy fit walks farthest-first and
 * stops at its first dependent candidate or a stop test; the ordered fit
 * walks a given order and drops each dependent candidate. Each walk
 * copies the points coordinate-major and keeps their distances to the
 * support and the support's coordinates, for the capacity, in a second
 * block. The packed factor is a bytearray of 16 rows that doubles, up to
 * the capacity, each time it fills, resized with the GIL held between
 * runs of the steps, and is returned cut to the rows kept. Once the walk
 * ends, the weights alpha = L^{-T} v are solved into the record's alpha row
 * as one axpy along each row of L from the last up. v_m takes w'v from the
 * same 8-partial-sum dot as the factor, where the numpy backend uses BLAS,
 * so E_m and the weights may differ from the numpy backend's in the last
 * bits; the supports, skipped candidates and radii do not.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous
 * float64 (int64 for a fit's order and support indices) of the right
 * shape; anything else raises TypeError or ValueError before a single
 * element is read. Every allocation goes through Python's allocators. The
 * loops release the GIL and start no threads.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* glibc's libmvec has vector exp and pow, but <math.h> declares them only
 * under -ffast-math, which would also let the compiler contract the
 * distance sums. Declared here, and built with -fno-math-errno and
 * -lmvec, the shape loops of each target clone call the vector variant
 * of its width. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
__attribute__((__simd__("notinbranch"))) double exp(double);
__attribute__((__simd__("notinbranch"))) double pow(double, double);
#endif

/* The buffers one call holds; released together whatever the outcome. */
typedef struct {
    Py_buffer view[5];
    int count;
} Views;

static void release(Views *vs)
{
    while (vs->count > 0)
        PyBuffer_Release(&vs->view[--vs->count]);
}

/* Borrow obj as a C-contiguous array of 8-byte items with ndim dimensions
 * and rows entries along the first (-1: any number): float64 items, or
 * int64 ones for an `integer` array. */
static void *borrow_any(Views *vs, PyObject *obj, const char *name, int ndim,
                        Py_ssize_t rows, int writable, int integer)
{
    Py_buffer *v = &vs->view[vs->count];
    const char *type = integer ? "int64" : "float64";
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s array", name, type);
        return NULL;
    }
    if (PyObject_GetBuffer(obj, v, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return NULL;
    vs->count++;
    if (v->itemsize != 8 || v->format == NULL
        || (integer ? strcmp(v->format, "l") != 0 && strcmp(v->format, "q") != 0
                    : strcmp(v->format, "d") != 0)) {
        PyErr_Format(PyExc_TypeError, "%s must be a %s array", name, type);
        return NULL;
    }
    if (v->ndim != ndim || !PyBuffer_IsContiguous(v, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous %d-D array", name, ndim);
        return NULL;
    }
    if (rows >= 0 && v->shape[0] != rows) {
        PyErr_Format(PyExc_ValueError, "%s has the wrong length", name);
        return NULL;
    }
    if (writable && v->readonly) {
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
        return NULL;
    }
    return v->buf;
}

static double *borrow(Views *vs, PyObject *obj, const char *name, int ndim,
                      Py_ssize_t rows, int writable)
{
    return borrow_any(vs, obj, name, ndim, rows, writable, 0);
}

/* Rows of ys copied per tile, or points per scan tile: 2 KB of each
 * coordinate, so a tile and one output row segment stay in L1 for the
 * whole of the x loop, and a scan tile's distances for its shape. */
#define TILE 256

/* Contraction stays off in the source whatever the build flags: the x86-64
 * clones have FMA, and a fused o + t*t rounds once where cdist rounds
 * twice. NO_CONTRACT keeps it off in the helpers too, should a compiler
 * not inline them into the cloned loops. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define NO_CONTRACT
#define CLONED
#define ALWAYS_INLINE __attribute__((always_inline))
#elif defined(__GNUC__)
#define NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#if defined(__x86_64__)
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default"))) NO_CONTRACT
#else
#define CLONED NO_CONTRACT
#endif
#define ALWAYS_INLINE __attribute__((always_inline))
#else
#define NO_CONTRACT
#define CLONED
#define ALWAYS_INLINE
#endif

/* Copy rows j0 .. j0 + w - 1 of the C-contiguous n x cols array src into
 * the coordinate-major tile with ld entries per coordinate:
 * tile[k * ld + j] = src[j0 + j, k]. */
static inline void load_tile(double *tile, const double *src, Py_ssize_t j0, Py_ssize_t w,
                             Py_ssize_t ld, Py_ssize_t cols)
{
    for (Py_ssize_t j = 0; j < w; j++)
        for (Py_ssize_t k = 0; k < cols; k++)
            tile[k * ld + j] = src[(j0 + j) * cols + k];
}

/* o[j] = sum_k (xi[k] - tile[k * ld + j])^2 over the first w rows of a
 * tile, in the order k = 0..d-1 as cdist sums them; no coordinates give 0. */
static inline NO_CONTRACT void dist_row(double *o, const double *xi, const double *tile,
                                        Py_ssize_t w, Py_ssize_t ld, Py_ssize_t d)
{
    if (d == 0) {
        memset(o, 0, w * sizeof(double));
        return;
    }
    for (Py_ssize_t j = 0; j < w; j++) {
        double t = xi[0] - tile[j];
        o[j] = t * t;
    }
    for (Py_ssize_t k = 1; k < d; k++) {
        const double xk = xi[k], *tk = tile + k * ld;
        for (Py_ssize_t j = 0; j < w; j++) {
            double t = xk - tk[j];
            o[j] += t * t;
        }
    }
}

/* Radial shape codes, as skm._backend._numpy_impl numbers them. */
enum { SHAPE_SQEXP, SHAPE_EXP, SHAPE_POWER };

/* r[j] = shape(r[j]) for the w squared distances of one row, each kind
 * in a loop of its own so that every clone calls libmvec's vector exp or
 * pow of its width. */
static inline NO_CONTRACT void shape_row(double *r, Py_ssize_t w, int kind, double a, double b)
{
    const double na = -a, nb = -b;
    switch (kind) {
    case SHAPE_SQEXP:
        for (Py_ssize_t j = 0; j < w; j++)
            r[j] = exp(r[j] * na);
        break;
    case SHAPE_EXP:
        for (Py_ssize_t j = 0; j < w; j++)
            r[j] = exp(sqrt(r[j]) * na);
        break;
    default:
        for (Py_ssize_t j = 0; j < w; j++)
            r[j] = pow(r[j] * a + 1.0, nb);
    }
}

/* sum_j u[j] v[j] in 8 independent partial sums: one vector of them per
 * clone, where a serial sum waits on each add. */
static inline NO_CONTRACT double dot(const double *u, const double *v, Py_ssize_t w)
{
    double s[8] = {0.0};
    Py_ssize_t j = 0;
    for (; j + 8 <= w; j += 8)
        for (int l = 0; l < 8; l++)
            s[l] += u[j + l] * v[j + l];
    for (int l = 0; j < w; j++, l++)
        s[l] += u[j] * v[j];
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* x <- L^{-1} x over the first m rows of the packed lower factor L:
 * x_t = (x_t - L_t . x) / L_tt, row after row. */
static inline NO_CONTRACT void forward_rows(const double *packed, double *x, Py_ssize_t m)
{
    for (Py_ssize_t t = 0; t < m; t++) {
        const double *row = packed + t * (t + 1) / 2;
        x[t] = (x[t] - dot(row, x, t)) / row[t];
    }
}

/* x <- L^{-T} x over the first m rows of the packed lower factor L: from
 * the last row up, x_t /= L_tt and then x_s -= L_ts x_t for s < t, one
 * axpy along row t. */
static inline NO_CONTRACT void back_rows(const double *packed, double *x, Py_ssize_t m)
{
    for (Py_ssize_t t = m - 1; t >= 0; t--) {
        const double *row = packed + t * (t + 1) / 2;
        const double xt = x[t] / row[t];
        x[t] = xt;
        for (Py_ssize_t s = 0; s < t; s++)
            x[s] -= row[s] * xt;
    }
}

static inline int64_t bits_of(double x)
{
    int64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits;
}

/* q[j] = min(q[j], r[j]) over w entries; returns the largest int64 bit
 * pattern of the new q[j], or -1 for no entries, and, given a nan, sets
 * *nan when a new q[j] is NaN. Given a nan, a NaN of either q[j] or r[j]
 * becomes the new q[j], as numpy's minimum propagates it. Squared
 * distances are non-negative, and the bit patterns of non-negative doubles
 * order as the doubles do; a NaN with its sign bit set has a negative
 * pattern, so only the flag catches it. Inlined with nan NULL, the flag
 * and the NaN test cost nothing. */
static inline int64_t lower_max(double *restrict q, const double *restrict r, Py_ssize_t w,
                                int64_t *nan)
{
    int64_t top = -1, bad = 0;
    for (Py_ssize_t j = 0; j < w; j++) {
        double t = r[j] < q[j] || (nan != NULL && r[j] != r[j]) ? r[j] : q[j];
        int64_t bits = bits_of(t);
        q[j] = t;
        top = bits > top ? bits : top;
        bad |= t != t;
    }
    if (nan != NULL)
        *nan |= bad;
    return top;
}

/* One farthest-first pass for the center y over the n points of the
 * coordinate-major d x n array xt, TILE points at a time: each tile's
 * squared distances ||x_i - y||^2 are formed in r (TILE doubles), sq[i] =
 * min(sq[i], ||x_i - y||^2), and the index of the largest sq, lowest on
 * ties, is returned, or -1 when a lowered sq is NaN. With a shape kind
 * >= 0, shape(r) is then formed in place while the tile is in L1 and
 * added to *shape_sum in 8 partial sums that run across the tiles. */
static CLONED Py_ssize_t scan_tiles(const double *xt, Py_ssize_t n, Py_ssize_t d, const double *y,
                                    double *sq, int kind, double a, double b, double *shape_sum,
                                    double *r)
{
    Py_ssize_t far = -1;
    int64_t top = -1, nan = 0;
    double s[8] = {0.0};
    for (Py_ssize_t i0 = 0; i0 < n; i0 += TILE) {
        Py_ssize_t w = n - i0 < TILE ? n - i0 : TILE, j;
        double *q = sq + i0;
        int64_t mx;
        dist_row(r, y, xt + i0, w, n, d);
        /* The greedy fit's distances start at +inf, and a NaN distance
         * never replaces one, so none is NaN. */
        mx = kind < 0 ? lower_max(q, r, w, &nan) : lower_max(q, r, w, NULL);
        if (mx > top) {  /* strict: a tie with an earlier tile keeps its index */
            top = mx;
            for (j = 0; bits_of(q[j]) != mx; j++)
                ;
            far = i0 + j;
        }
        if (kind >= 0) {
            shape_row(r, w, kind, a, b);
            for (j = 0; j + 8 <= w; j += 8)
                for (int l = 0; l < 8; l++)
                    s[l] += r[j + l];
            for (int l = 0; j < w; j++, l++)
                s[l] += r[j];
        }
    }
    *shape_sum = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    return nan ? -1 : far;
}

static PyObject *farthest_scan(PyObject *self, PyObject *args)
{
    PyObject *po, *so;
    Py_ssize_t j, far;
    double shape_sum;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OnO", &po, &j, &so))
        return NULL;
    const double *xt = borrow(&vs, po, "coords", 2, -1, 0);
    Py_ssize_t d = xt ? vs.view[0].shape[0] : 0, n = xt ? vs.view[0].shape[1] : 0;
    double *sq = xt ? borrow(&vs, so, "sqdist", 1, n, 1) : NULL;
    if (sq != NULL && (j < 0 || j >= n))
        PyErr_Format(PyExc_ValueError, "index %zd out of range for n=%zd", j, n);
    double *buf = NULL;
    if (!PyErr_Occurred() && (buf = PyMem_Malloc((TILE + d) * sizeof(double))) == NULL)
        PyErr_NoMemory();
    if (PyErr_Occurred()) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    double *y = buf + TILE;
    for (Py_ssize_t k = 0; k < d; k++)
        y[k] = xt[k * n + j];
    far = scan_tiles(xt, n, d, y, sq, -1, 0.0, 0.0, &shape_sum, buf);
    Py_END_ALLOW_THREADS
    PyMem_Free(buf);
    /* scan_tiles finds no farthest point among negative distances, nor
     * any when one is NaN; sq has already been lowered */
    if (far < 0 || !(sq[far] >= 0.0))
        PyErr_SetString(PyExc_ValueError, "the farthest sqdist entry is negative or NaN");
    release(&vs);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(far);
}

/* out[i, q] = c * sum_j shape(||x_i - y_j||^2) coef[j, q] for the nx rows
 * of x against the ny rows of y and the p columns of coef. scratch holds
 * TILE x (d + p + 1) doubles: a tile of ys and of coef, coordinate-major,
 * and the row of one x's kernel values against the tile. */
static CLONED void kernel_tiles(const double *x, Py_ssize_t nx, const double *y, Py_ssize_t ny,
                                Py_ssize_t d, const double *coef, Py_ssize_t p, int kind,
                                double a, double b, double c, double *out, double *scratch)
{
    double *tile = scratch, *ctile = tile + TILE * d, *r = ctile + TILE * p;
    memset(out, 0, nx * p * sizeof(double));
    for (Py_ssize_t j0 = 0; j0 < ny; j0 += TILE) {
        Py_ssize_t w = ny - j0 < TILE ? ny - j0 : TILE;
        load_tile(tile, y, j0, w, w, d);
        load_tile(ctile, coef, j0, w, w, p);
        for (Py_ssize_t i = 0; i < nx; i++) {
            dist_row(r, x + i * d, tile, w, w, d);
            shape_row(r, w, kind, a, b);
            for (Py_ssize_t q = 0; q < p; q++)
                out[i * p + q] += c * dot(r, ctile + q * w, w);
        }
    }
}

static PyObject *kernel_sums(PyObject *self, PyObject *args)
{
    PyObject *xo, *yo, *co, *oo;
    int kind;
    double a, b, c;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OOOidddO", &xo, &yo, &co, &kind, &a, &b, &c, &oo))
        return NULL;
    if (kind < SHAPE_SQEXP || kind > SHAPE_POWER) {
        PyErr_Format(PyExc_ValueError, "unknown shape kind %d", kind);
        return NULL;
    }
    const double *x = borrow(&vs, xo, "xs", 2, -1, 0);
    Py_ssize_t nx = x ? vs.view[0].shape[0] : 0, d = x ? vs.view[0].shape[1] : 0;
    const double *y = x ? borrow(&vs, yo, "ys", 2, -1, 0) : NULL;
    Py_ssize_t ny = y ? vs.view[1].shape[0] : 0;
    if (y != NULL && vs.view[1].shape[1] != d)
        PyErr_Format(PyExc_ValueError, "ys has %zd columns, xs has %zd",
                     vs.view[1].shape[1], d);
    const double *coef = PyErr_Occurred() ? NULL : borrow(&vs, co, "coef", 2, ny, 0);
    Py_ssize_t p = coef ? vs.view[2].shape[1] : 0;
    double *out = coef ? borrow(&vs, oo, "out", 2, nx, 1) : NULL;
    if (out != NULL && vs.view[3].shape[1] != p)
        PyErr_SetString(PyExc_ValueError, "out must have one column per column of coef");
    double *scratch = NULL;
    if (!PyErr_Occurred()
        && (scratch = PyMem_Malloc(TILE * (d + p + 1) * sizeof(double))) == NULL)
        PyErr_NoMemory();
    if (PyErr_Occurred()) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    kernel_tiles(x, nx, y, ny, d, coef, p, kind, a, b, c, out, scratch);
    Py_END_ALLOW_THREADS
    PyMem_Free(scratch);
    release(&vs);
    Py_RETURN_NONE;
}

/* One pivoted Cholesky step: the Gram row c * shape(||xi - x_t||^2) of
 * the candidate xi against the kept points x_t, coordinate-major in kt
 * with ld entries per coordinate, goes straight into the next packed row
 * w of L, the one after the kept rows, and is solved there, w_t = (g_t -
 * L_t . w) / L_tt. Returns the candidate's pivot c - w'w, since g_ii = c *
 * shape(0) = c for every shape. */
static inline NO_CONTRACT double pivot_row(double *packed, Py_ssize_t kept, const double *xi,
                                           const double *kt, Py_ssize_t ld, Py_ssize_t d,
                                           int kind, double a, double b, double c)
{
    double *w = packed + kept * (kept + 1) / 2;
    dist_row(w, xi, kt, kept, ld, d);
    shape_row(w, kept, kind, a, b);
    for (Py_ssize_t t = 0; t < kept; t++)
        w[t] *= c;
    forward_rows(packed, w, kept);
    return c - dot(w, w, kept);
}

/* The greedy walk's stop tests, in the order it makes them, and the names
 * greedy_fit returns for them; between the budget and the dependent test,
 * a full packed factor returns GROW, for the caller to double it. The
 * ordered walk ends at STOP_BUDGET once its order is used up. */
enum { STOP_BUDGET, STOP_DEPENDENT, STOP_RATIO, STOP_RADIUS, GROW };
static const char *const STOP_NAMES[] = {"budget", "dependent", "ratio", "radius"};

/* The rows of a fit's record, each `cap` doubles long. */
enum { REC_PIVOT, REC_KAPPA, REC_V, REC_E, REC_RADIUS, REC_SECONDS, REC_ALPHA, REC_ROWS };

static double seconds_since(const struct timespec *t0)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec - t0->tv_sec) + 1e-9 * (double)(t.tv_nsec - t0->tv_nsec);
}

/* What every step of a fit reads and writes: the points coordinate-major
 * in xt, their squared distances to the support in sq, the order of an
 * ordered walk (NULL for the greedy one), the indices and record for cap
 * points, and scratch, TILE + d + cap * d doubles: the scan's tile, the
 * candidate's coordinates and the support's, coordinate-major. */
typedef struct {
    double *xt, *sq, *record, *scratch;
    Py_ssize_t n, d, cap, count;
    int kind;
    double a, b, c, threshold, epsilon;
    const int64_t *order;
    int64_t *indices;
    struct timespec t0;
} Walk;

/* The one fit step of candidate j as support point k, as
 * skm._backend._numpy_impl's _Walk.step describes it. Returns the farthest
 * point from the new support, or -1 for a dependent j, which changes
 * nothing but the record's pivot of point k. Inlined into each walk, so
 * every clone forms the rows at its own vector width. */
static inline ALWAYS_INLINE NO_CONTRACT Py_ssize_t
fit_step(const Walk *w, double *packed, Py_ssize_t k, Py_ssize_t j)
{
    const Py_ssize_t n = w->n, d = w->d, cap = w->cap;
    double *pivots = w->record + REC_PIVOT * cap, *kappa = w->record + REC_KAPPA * cap,
           *v = w->record + REC_V * cap, *e = w->record + REC_E * cap;
    double *r = w->scratch, *y = r + TILE, *kt = y + d, *row = packed + k * (k + 1) / 2;
    double total;
    for (Py_ssize_t q = 0; q < d; q++)
        y[q] = w->xt[q * n + j];
    pivots[k] = pivot_row(packed, k, y, kt, cap, d, w->kind, w->a, w->b, w->c);
    if (!(pivots[k] > w->threshold))
        return -1;
    row[k] = sqrt(pivots[k]);
    for (Py_ssize_t q = 0; q < d; q++)
        kt[q * cap + k] = y[q];
    Py_ssize_t far = scan_tiles(w->xt, n, d, y, w->sq, w->kind, w->a, w->b, &total, r);
    kappa[k] = w->c * total / (double)n;
    v[k] = (kappa[k] - dot(row, v, k)) / row[k];
    e[k] = (k ? e[k - 1] : 0.0) - v[k] * v[k];
    w->indices[k] = j;
    w->record[REC_RADIUS * cap + k] = sqrt(w->sq[far]);
    w->record[REC_SECONDS * cap + k] = seconds_since(&w->t0);
    return far;
}

/* Greedy steps from support size *m and candidate *cand, as
 * skm._backend._numpy_impl.greedy_fit describes them, with room for `rows`
 * rows in the packed factor. Leaves the new support size in *m and the
 * dependent or next candidate in *cand, and returns the stop code. */
static CLONED int greedy_steps(const Walk *w, double *packed, Py_ssize_t rows, Py_ssize_t *m,
                               Py_ssize_t *cand)
{
    const double *e = w->record + REC_E * w->cap, *radius = w->record + REC_RADIUS * w->cap;
    for (Py_ssize_t k = *m, far;;) {
        if (k == rows)  /* rows is at most the capacity */
            return k == w->cap ? STOP_BUDGET : GROW;
        if ((far = fit_step(w, packed, k, *cand)) < 0)
            return STOP_DEPENDENT;
        *cand = far;
        *m = ++k;
        double span = fabs(e[0] - e[k - 1]);
        if (k > 1 && (span == 0.0 ? 0.0 : fabs(e[k - 2] - e[k - 1]) / span) <= w->epsilon)
            return STOP_RATIO;
        if (radius[k - 1] == 0.0)
            return STOP_RADIUS;
    }
}

/* Ordered steps from support size *m at position *i of the order: each
 * candidate is kept or dropped in turn, until the order is used up
 * (STOP_BUDGET) or the packed factor, with room for `rows` rows, is full
 * (GROW). */
static CLONED int order_steps(const Walk *w, double *packed, Py_ssize_t rows, Py_ssize_t *m,
                              Py_ssize_t *i)
{
    for (; *i < w->count; ++*i) {
        if (*m == rows)
            return GROW;
        if (fit_step(w, packed, *m, w->order[*i]) >= 0)
            ++*m;
    }
    return STOP_BUDGET;
}

/* Both fits: parse and check the arguments, run the walk, greedy from the
 * candidate `first` or along `order`, and return its result, with the
 * packed factor cut to the m kept rows. */
static PyObject *walk(PyObject *args, int ordered)
{
    PyObject *xo, *oo = NULL, *io, *ro, *packed = NULL;
    Walk w = {.xt = NULL, .sq = NULL, .epsilon = 0.0, .order = NULL, .count = 0};
    Views vs = {.count = 0};
    Py_ssize_t m = 0, pos = 0;  /* the ordered walk's place in its order, or the next candidate */
    int stop = GROW;
    clock_gettime(CLOCK_MONOTONIC, &w.t0);
    if (!(ordered ? PyArg_ParseTuple(args, "OiddddOOO", &xo, &w.kind, &w.a, &w.b, &w.c,
                                     &w.threshold, &oo, &io, &ro)
                  : PyArg_ParseTuple(args, "OidddddnOO", &xo, &w.kind, &w.a, &w.b, &w.c,
                                     &w.threshold, &w.epsilon, &pos, &io, &ro)))
        return NULL;
    if (w.kind < SHAPE_SQEXP || w.kind > SHAPE_POWER) {
        PyErr_Format(PyExc_ValueError, "unknown shape kind %d", w.kind);
        return NULL;
    }
    const double *x = borrow(&vs, xo, "points", 2, -1, 0);
    w.n = x ? vs.view[0].shape[0] : 0;
    w.d = x ? vs.view[0].shape[1] : 0;
    if (x != NULL && ordered) {
        w.order = borrow_any(&vs, oo, "order", 1, -1, 0, 1);
        w.count = w.order ? vs.view[1].shape[0] : 0;
        for (Py_ssize_t t = 0; t < w.count && !PyErr_Occurred(); t++)
            if (w.order[t] < 0 || w.order[t] >= w.n)
                PyErr_Format(PyExc_ValueError, "index %lld out of range for n=%zd",
                             (long long)w.order[t], w.n);
    }
    else if (x != NULL && (pos < 0 || pos >= w.n))
        PyErr_Format(PyExc_ValueError, "index %zd out of range for n=%zd", pos, w.n);
    w.indices = PyErr_Occurred() ? NULL
                                 : borrow_any(&vs, io, "indices", 1, ordered ? w.count : -1, 1, 1);
    w.cap = w.indices ? vs.view[vs.count - 1].shape[0] : 0;
    w.record = w.indices ? borrow(&vs, ro, "record", 2, REC_ROWS, 1) : NULL;
    if (w.record != NULL && vs.view[vs.count - 1].shape[1] != w.cap)
        PyErr_SetString(PyExc_ValueError, "record must have one column per index");
    /* The points coordinate-major in a block of their own, the size of the
     * (n, d) arrays a caller allocates and frees, so the heap can reuse their
     * space (in one block with the distances, four fit and evaluate cycles on
     * 100000 x 8 points peaked 6.5 MB higher); then the distances to the
     * support and the steps' scratch. */
    if (!PyErr_Occurred()
        && ((w.xt = PyMem_Malloc(w.n * w.d * sizeof(double))) == NULL
            || (w.sq = PyMem_Malloc((w.n + TILE + w.d + w.cap * w.d) * sizeof(double))) == NULL))
        PyErr_NoMemory();
    if (!PyErr_Occurred())
        packed = PyByteArray_FromStringAndSize(NULL, 0);
    if (packed != NULL) {
        w.scratch = w.sq + w.n;
        Py_BEGIN_ALLOW_THREADS
        load_tile(w.xt, x, 0, w.n, w.n, w.d);
        for (Py_ssize_t i = 0; i < w.n; i++)
            w.sq[i] = INFINITY;
        Py_END_ALLOW_THREADS
    }
    while (packed != NULL && stop == GROW) {
        Py_ssize_t rows = 2 * m > 16 ? 2 * m : 16;
        rows = rows < w.cap ? rows : w.cap;
        if (PyByteArray_Resize(packed, rows * (rows + 1) / 2 * sizeof(double)) < 0)
            break;
        double *lower = (double *)PyByteArray_AS_STRING(packed);
        Py_BEGIN_ALLOW_THREADS
        stop = ordered ? order_steps(&w, lower, rows, &m, &pos)
                       : greedy_steps(&w, lower, rows, &m, &pos);
        Py_END_ALLOW_THREADS
    }
    if (stop != GROW) {  /* the weights alpha = L^{-T} v, in the record's own row */
        double *alpha = w.record + REC_ALPHA * w.cap;
        const double *lower = (const double *)PyByteArray_AS_STRING(packed);
        Py_BEGIN_ALLOW_THREADS
        memcpy(alpha, w.record + REC_V * w.cap, m * sizeof(double));
        back_rows(lower, alpha, m);
        Py_END_ALLOW_THREADS
    }
    PyMem_Free(w.xt);
    PyMem_Free(w.sq);
    release(&vs);
    if (packed == NULL || stop == GROW
        || PyByteArray_Resize(packed, m * (m + 1) / 2 * sizeof(double)) < 0) {
        Py_XDECREF(packed);
        return NULL;
    }
    return ordered ? Py_BuildValue("nN", m, packed)
                   : Py_BuildValue("nnsN", m, pos, STOP_NAMES[stop], packed);
}

static PyObject *greedy_fit(PyObject *self, PyObject *args)
{
    return walk(args, 0);
}

static PyObject *order_fit(PyObject *self, PyObject *args)
{
    return walk(args, 1);
}

static PyMethodDef methods[] = {
    {"farthest_scan", farthest_scan, METH_VARARGS,
     "farthest_scan(coords, j, sqdist) -> farthest index"},
    {"kernel_sums", kernel_sums, METH_VARARGS,
     "kernel_sums(xs, ys, coef, kind, a, b, c, out) -> None"},
    {"greedy_fit", greedy_fit, METH_VARARGS,
     "greedy_fit(points, kind, a, b, c, threshold, epsilon, first, indices, record) "
     "-> (m, cand, stop, packed)"},
    {"order_fit", order_fit, METH_VARARGS,
     "order_fit(points, kind, a, b, c, threshold, order, indices, record) -> (m, packed)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_fastcore", NULL, -1, methods};

/* The module exports its record's row count, so that skm._backend refuses
 * an extension built from a _fastcore.c whose record differs. */
PyMODINIT_FUNC PyInit__fastcore(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddIntConstant(mod, "RECORD_ROW_COUNT", REC_ROWS) < 0)
        Py_CLEAR(mod);
    return mod;
}
