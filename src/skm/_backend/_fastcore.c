/* Compiled inner loops: the farthest-first scan, the kernel sums and the
 * pivoted Cholesky step of both fits. The signatures match
 * skm._backend._numpy_impl exactly.
 *
 * The scan reads a coordinate-major (d, n) copy of the points in tiles of
 * TILE points. For each tile it forms the squared distances to the new
 * center in a TILE-double buffer, lowers a caller's buffer of distances to
 * the chosen set in place and takes the tile's farthest point, so a
 * farthest-first step writes each distance once. Given a shape, it then
 * applies the shape to the tile's distances in place while they are in L1
 * and sums it, which gives the greedy fit the kernel row mean of the new
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
 * The factorisation is partial pivoted Cholesky along the rows of a point
 * array: each candidate's Gram row against the kept points is formed with
 * the same distance, shape and dot code, solved against the packed lower
 * factor, and the candidate is kept when its pivot passes a threshold. The
 * greedy fit runs it on one new candidate at a time, a fixed-order fit on
 * the whole order at once.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous
 * float64 of the right shape; anything else raises TypeError or
 * ValueError before a single element is read. The loops release the GIL
 * and start no threads.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

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
    Py_buffer view[4];
    int count;
} Views;

static void release(Views *vs)
{
    while (vs->count > 0)
        PyBuffer_Release(&vs->view[--vs->count]);
}

/* Borrow obj as a C-contiguous float64 array with ndim dimensions and rows
 * entries along the first (-1: any number). */
static double *borrow(Views *vs, PyObject *obj, const char *name, int ndim,
                      Py_ssize_t rows, int writable)
{
    Py_buffer *v = &vs->view[vs->count];
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a float64 array", name);
        return NULL;
    }
    if (PyObject_GetBuffer(obj, v, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return NULL;
    vs->count++;
    if (v->itemsize != 8 || v->format == NULL || strcmp(v->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a float64 array", name);
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
    return (double *)v->buf;
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
#elif defined(__GNUC__)
#define NO_CONTRACT __attribute__((optimize("fp-contract=off")))
#if defined(__x86_64__)
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default"))) NO_CONTRACT
#else
#define CLONED NO_CONTRACT
#endif
#else
#define NO_CONTRACT
#define CLONED
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

/* Radial shape codes, as skm._backend._shape numbers them. */
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

/* q[j] = min(q[j], r[j]) over w entries; returns the largest new q[j]
 * (-1 if all are NaN), kept in 8 partial maxima as `dot` keeps its sums. */
static inline double lower_max(double *restrict q, const double *restrict r, Py_ssize_t w)
{
    double m[8] = {-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0};
    Py_ssize_t j = 0;
    for (; j + 8 <= w; j += 8)
        for (int l = 0; l < 8; l++) {
            q[j + l] = r[j + l] < q[j + l] ? r[j + l] : q[j + l];
            m[l] = q[j + l] > m[l] ? q[j + l] : m[l];
        }
    for (int l = 0; j < w; j++, l++) {
        q[j] = r[j] < q[j] ? r[j] : q[j];
        m[l] = q[j] > m[l] ? q[j] : m[l];
    }
    for (int l = 1; l < 8; l++)
        m[0] = m[l] > m[0] ? m[l] : m[0];
    return m[0];
}

/* One farthest-first pass for the center y over the n points of the
 * coordinate-major d x n array xt, TILE points at a time: each tile's
 * squared distances ||x_i - y||^2 are formed in r (TILE doubles), sq[i] =
 * min(sq[i], ||x_i - y||^2), and the index of the largest sq, lowest on
 * ties, is returned. With a shape kind >= 0, shape(r) is then formed in
 * place while the tile is in L1 and added to *shape_sum in 8 partial sums
 * that run across the tiles. */
static CLONED Py_ssize_t scan_tiles(const double *xt, Py_ssize_t n, Py_ssize_t d, const double *y,
                                    double *sq, int kind, double a, double b, double *shape_sum,
                                    double *r)
{
    Py_ssize_t far = -1;
    double top = -1.0, s[8] = {0.0};
    for (Py_ssize_t i0 = 0; i0 < n; i0 += TILE) {
        Py_ssize_t w = n - i0 < TILE ? n - i0 : TILE, j;
        double *q = sq + i0, mx;
        dist_row(r, y, xt + i0, w, n, d);
        mx = lower_max(q, r, w);
        if (mx > top) {  /* strict: a tie with an earlier tile keeps its index */
            top = mx;
            for (j = 0; q[j] != mx; j++)
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
    return far;
}

static PyObject *farthest_scan(PyObject *self, PyObject *args)
{
    PyObject *po, *so, *shape = Py_None;
    Py_ssize_t j, far;
    int kind = -1;
    double a = 0.0, b = 0.0, shape_sum;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OnO|O", &po, &j, &so, &shape))
        return NULL;
    if (shape != Py_None) {
        if (!PyTuple_Check(shape) || !PyArg_ParseTuple(shape, "idd", &kind, &a, &b)) {
            PyErr_SetString(PyExc_TypeError, "shape must be None or a (kind, a, b) tuple");
            return NULL;
        }
        if (kind < SHAPE_SQEXP || kind > SHAPE_POWER) {
            PyErr_Format(PyExc_ValueError, "unknown shape kind %d", kind);
            return NULL;
        }
    }
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
    far = scan_tiles(xt, n, d, y, sq, kind, a, b, &shape_sum, buf);
    Py_END_ALLOW_THREADS
    PyMem_Free(buf);
    release(&vs);
    if (shape == Py_None)
        return Py_BuildValue("nO", far, Py_None);
    return Py_BuildValue("nd", far, shape_sum);
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

/* Partial pivoted Cholesky of the m rows of x from row start on; the rows
 * before start are kept already, with their packed factor in place.
 * Candidate i's Gram row against the kept points, c * shape(||x_i -
 * x_t||^2), goes straight into the next packed row w of L and is solved
 * there, w_t = (g_t - L_t . w) / L_tt. Its pivot is c - w'w, since g_ii =
 * c * shape(0) = c for every shape. When the pivot exceeds the threshold
 * the row gets sqrt(pivot) and the candidate is kept; otherwise the next
 * candidate overwrites it and nothing has to be undone. kt holds m x d
 * doubles: the kept points, coordinate-major with m entries per
 * coordinate. Returns the number kept. */
static CLONED Py_ssize_t factor_rows(const double *x, Py_ssize_t m, Py_ssize_t d, int kind,
                                     double a, double b, double c, double threshold,
                                     Py_ssize_t start, double *packed, double *pivots,
                                     double *kt)
{
    Py_ssize_t kept = start;
    load_tile(kt, x, 0, start, m, d);
    for (Py_ssize_t i = start; i < m; i++) {
        double *w = packed + kept * (kept + 1) / 2;
        dist_row(w, x + i * d, kt, kept, m, d);
        shape_row(w, kept, kind, a, b);
        for (Py_ssize_t t = 0; t < kept; t++)
            w[t] *= c;
        for (Py_ssize_t t = 0; t < kept; t++) {
            const double *row = packed + t * (t + 1) / 2;
            w[t] = (w[t] - dot(row, w, t)) / row[t];
        }
        pivots[i] = c - dot(w, w, kept);
        if (pivots[i] > threshold) {
            w[kept] = sqrt(pivots[i]);
            load_tile(kt + kept, x, i, 1, m, d);
            kept++;
        }
    }
    return kept;
}

static PyObject *factor_order(PyObject *self, PyObject *args)
{
    PyObject *xo, *lo, *po;
    int kind;
    double a, b, c, threshold;
    Py_ssize_t start, kept;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OiddddnOO", &xo, &kind, &a, &b, &c, &threshold, &start,
                          &lo, &po))
        return NULL;
    if (kind < SHAPE_SQEXP || kind > SHAPE_POWER) {
        PyErr_Format(PyExc_ValueError, "unknown shape kind %d", kind);
        return NULL;
    }
    const double *x = borrow(&vs, xo, "points", 2, -1, 0);
    Py_ssize_t m = x ? vs.view[0].shape[0] : 0, d = x ? vs.view[0].shape[1] : 0;
    if (x != NULL && (start < 0 || start > m))
        PyErr_Format(PyExc_ValueError, "start %zd out of range for m=%zd", start, m);
    double *packed = PyErr_Occurred() ? NULL
                   : borrow(&vs, lo, "packed", 1, m * (m + 1) / 2, 1);
    double *pivots = packed ? borrow(&vs, po, "pivots", 1, m, 1) : NULL;
    double *kt = NULL;
    if (pivots != NULL && (kt = PyMem_Malloc((m * d + 1) * sizeof(double))) == NULL)
        PyErr_NoMemory();
    if (kt == NULL) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    kept = factor_rows(x, m, d, kind, a, b, c, threshold, start, packed, pivots, kt);
    Py_END_ALLOW_THREADS
    PyMem_Free(kt);
    release(&vs);
    return PyLong_FromSsize_t(kept);
}

static PyMethodDef methods[] = {
    {"farthest_scan", farthest_scan, METH_VARARGS,
     "farthest_scan(coords, j, sqdist, shape=None) -> (farthest index, shape sum)"},
    {"kernel_sums", kernel_sums, METH_VARARGS,
     "kernel_sums(xs, ys, coef, kind, a, b, c, out) -> None"},
    {"factor_order", factor_order, METH_VARARGS,
     "factor_order(points, kind, a, b, c, threshold, start, packed, pivots) -> kept count"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_fastcore", NULL, -1, methods};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    return PyModule_Create(&module);
}
