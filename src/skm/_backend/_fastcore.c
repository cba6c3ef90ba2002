/* Compiled inner loops: the farthest-first scan, the squared-distance
 * block under every kernel sum and the fixed-order pivoted Cholesky
 * factorisation. The signatures match skm._backend._numpy_impl exactly.
 *
 * The scan writes each point's squared distance to the new center into a
 * caller's buffer, lowers a second buffer of distances to the chosen set
 * in place and returns the farthest point, so a farthest-first step reads
 * and writes each distance once. The kernel row mean of the new center is
 * computed from the first buffer in numpy, by the one shape function in
 * skm.kernels.
 *
 * The distance block writes ||x_i - y_j||^2 into out[i, j], summing the
 * coordinates in the order k = 0..d-1 as scipy's cdist "sqeuclidean"
 * does, so the two are bit-identical. The rows of ys are copied TILE at a
 * time into a coordinate-major scratch of TILE x d doubles, whatever the
 * number of rows, and the loop runs along the contiguous entries of a
 * tile. Its clones for AVX-512 and AVX2 are picked at load time, and
 * floating-point contraction is off for it: a fused multiply-add would
 * round t*t + o once instead of twice and differ from cdist.
 *
 * The factorisation takes the Gram block of a candidate order and keeps
 * each candidate whose pivot passes a threshold, writing the packed rows
 * of the lower factor of the kept points and every candidate's pivot.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous
 * float64 of the right shape; anything else raises TypeError or
 * ValueError before a single element is read. The loops release the GIL.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* The buffers one call holds; released together whatever the outcome. */
typedef struct {
    Py_buffer view[3];
    int count;
} Views;

static void release(Views *vs)
{
    while (vs->count > 0)
        PyBuffer_Release(&vs->view[--vs->count]);
}

/* Borrow obj as a C-contiguous float64 array with ndim dimensions and
 * rows entries along the first (-1: any number). */
static double *borrow(Views *vs, PyObject *obj, const char *name, int ndim,
                      Py_ssize_t rows, int writable)
{
    Py_buffer *v = &vs->view[vs->count];
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

static inline double sqdist(const double *x, const double *y, Py_ssize_t d)
{
    double acc = 0.0;
    for (Py_ssize_t k = 0; k < d; k++) {
        double diff = x[k] - y[k];
        acc += diff * diff;
    }
    return acc;
}

/* The scan runs its distance loop n times per step. Starting the function
 * on a 64-byte line fixes where that loop falls against cache-line and
 * 32-byte fetch boundaries, so adding code elsewhere in this file cannot
 * slow it: placed 48 bytes past a line, the same machine code scanned
 * 1e5 x 8 points about 10% slower on an AVX-512 Xeon. */
#if defined(__GNUC__)
__attribute__((aligned(64)))
#endif
static PyObject *farthest_scan(PyObject *self, PyObject *args)
{
    PyObject *po, *so, *ro;
    Py_ssize_t j, far = -1;
    double top = -1.0;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OnOO", &po, &j, &so, &ro))
        return NULL;
    const double *x = borrow(&vs, po, "points", 2, -1, 0);
    Py_ssize_t n = x ? vs.view[0].shape[0] : 0, d = x ? vs.view[0].shape[1] : 0;
    double *sq = x ? borrow(&vs, so, "sqdist", 1, n, 1) : NULL;
    double *r2 = sq ? borrow(&vs, ro, "r2", 1, n, 1) : NULL;
    if (r2 != NULL && (j < 0 || j >= n))
        PyErr_Format(PyExc_ValueError, "index %zd out of range for n=%zd", j, n);
    if (PyErr_Occurred()) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    const double *y = x + j * d;
    for (Py_ssize_t i = 0; i < n; i++) {
        double s = sqdist(x + i * d, y, d);
        r2[i] = s;
        if (s < sq[i])
            sq[i] = s;
        if (sq[i] > top) {  /* strict: ties keep the lowest index */
            top = sq[i];
            far = i;
        }
    }
    Py_END_ALLOW_THREADS
    release(&vs);
    return PyLong_FromSsize_t(far);
}

/* Rows of ys copied per tile: 2 KB of each coordinate, so a tile and
 * one output row segment stay in L1 for the whole of the x loop. */
#define TILE 256

/* Contraction stays off in the source whatever the build flags: the x86-64
 * clones have FMA, and a fused o + t*t rounds once where cdist rounds
 * twice. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define SQDIST_ATTRS
#elif defined(__GNUC__) && defined(__x86_64__)
#define SQDIST_ATTRS __attribute__((target_clones("avx512f", "avx2", "default"), \
                                    optimize("fp-contract=off")))
#elif defined(__GNUC__)
#define SQDIST_ATTRS __attribute__((optimize("fp-contract=off")))
#else
#define SQDIST_ATTRS
#endif

/* out[i, j] = sum_k (x_ik - y_jk)^2 for the nx rows of x against the ny
 * rows of y, in the tiles of ys that fit `tile` (TILE x d doubles). */
static SQDIST_ATTRS void sqdist_tiles(const double *x, Py_ssize_t nx, const double *y,
                                      Py_ssize_t ny, Py_ssize_t d, double *out,
                                      double *tile)
{
    for (Py_ssize_t j0 = 0; j0 < ny; j0 += TILE) {
        Py_ssize_t w = ny - j0 < TILE ? ny - j0 : TILE;
        for (Py_ssize_t j = 0; j < w; j++)
            for (Py_ssize_t k = 0; k < d; k++)
                tile[k * w + j] = y[(j0 + j) * d + k];
        for (Py_ssize_t i = 0; i < nx; i++) {
            const double *xi = x + i * d;
            double *o = out + i * ny + j0;
            for (Py_ssize_t j = 0; j < w; j++) {
                double t = xi[0] - tile[j];
                o[j] = t * t;
            }
            for (Py_ssize_t k = 1; k < d; k++) {
                const double xk = xi[k], *tk = tile + k * w;
                for (Py_ssize_t j = 0; j < w; j++) {
                    double t = xk - tk[j];
                    o[j] += t * t;
                }
            }
        }
    }
}

static PyObject *sqdist_block(PyObject *self, PyObject *args)
{
    PyObject *xo, *yo, *oo;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OOO", &xo, &yo, &oo))
        return NULL;
    const double *x = borrow(&vs, xo, "xs", 2, -1, 0);
    Py_ssize_t nx = x ? vs.view[0].shape[0] : 0, d = x ? vs.view[0].shape[1] : 0;
    const double *y = x ? borrow(&vs, yo, "ys", 2, -1, 0) : NULL;
    Py_ssize_t ny = y ? vs.view[1].shape[0] : 0;
    if (y != NULL && vs.view[1].shape[1] != d)
        PyErr_Format(PyExc_ValueError, "ys has %zd columns, xs has %zd",
                     vs.view[1].shape[1], d);
    double *out = PyErr_Occurred() ? NULL : borrow(&vs, oo, "out", 2, nx, 1);
    if (out != NULL && vs.view[2].shape[1] != ny)
        PyErr_SetString(PyExc_ValueError, "out must have one column per row of ys");
    double *tile = NULL;
    if (!PyErr_Occurred() && d > 0 && (tile = PyMem_Malloc(TILE * d * sizeof(double))) == NULL)
        PyErr_NoMemory();
    if (PyErr_Occurred()) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    if (d == 0)
        memset(out, 0, nx * ny * sizeof(double));
    else
        sqdist_tiles(x, nx, y, ny, d, out, tile);
    Py_END_ALLOW_THREADS
    PyMem_Free(tile);
    release(&vs);
    Py_RETURN_NONE;
}

/* Candidate i is kept when its pivot g_ii - w'w, with w = L^{-1} g_i over
 * the kept points before it, exceeds the threshold. w goes straight into
 * the next packed row of L, so a dropped candidate is overwritten by the
 * next one and nothing has to be undone. */
static PyObject *factor_order(PyObject *self, PyObject *args)
{
    PyObject *go, *lo, *po;
    double threshold;
    Py_ssize_t kept = 0;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OdOO", &go, &threshold, &lo, &po))
        return NULL;
    const double *g = borrow(&vs, go, "gram", 2, -1, 0);
    Py_ssize_t m = g ? vs.view[0].shape[0] : 0;
    if (g != NULL && vs.view[0].shape[1] != m)
        PyErr_SetString(PyExc_ValueError, "gram must be square");
    double *packed = PyErr_Occurred() ? NULL
                   : borrow(&vs, lo, "packed", 1, m * (m + 1) / 2, 1);
    double *pivots = packed ? borrow(&vs, po, "pivots", 1, m, 1) : NULL;
    if (pivots == NULL) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < m; i++) {
        const double *gi = g + i * m;
        double *w = packed + kept * (kept + 1) / 2;
        double ww = 0.0;
        /* Forward substitution L w = g_i, restricted to the kept points:
         * row t of L belongs to the t-th kept candidate before i. */
        for (Py_ssize_t l = 0, t = 0; l < i; l++) {
            if (!(pivots[l] > threshold))
                continue;
            const double *row = packed + t * (t + 1) / 2;
            double acc = gi[l];
            for (Py_ssize_t s = 0; s < t; s++)
                acc -= row[s] * w[s];
            w[t] = acc / row[t];
            ww += w[t] * w[t];
            t++;
        }
        pivots[i] = gi[i] - ww;
        if (pivots[i] > threshold) {
            w[kept] = sqrt(pivots[i]);
            kept++;
        }
    }
    Py_END_ALLOW_THREADS
    release(&vs);
    return PyLong_FromSsize_t(kept);
}

static PyMethodDef methods[] = {
    {"farthest_scan", farthest_scan, METH_VARARGS,
     "farthest_scan(points, j, sqdist, r2) -> farthest index"},
    {"sqdist_block", sqdist_block, METH_VARARGS,
     "sqdist_block(xs, ys, out) -> None"},
    {"factor_order", factor_order, METH_VARARGS,
     "factor_order(gram, threshold, packed, pivots) -> kept count"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_fastcore", NULL, -1, methods};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    return PyModule_Create(&module);
}
