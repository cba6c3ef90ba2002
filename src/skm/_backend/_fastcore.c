/* Compiled inner loops: the farthest-first scan and the fixed-order
 * pivoted Cholesky factorisation. The signatures match
 * skm._backend._numpy_impl exactly.
 *
 * The scan writes each point's squared distance to the new center into a
 * caller's buffer, lowers a second buffer of distances to the chosen set
 * in place and returns the farthest point, so a farthest-first step reads
 * and writes each distance once. The kernel row mean of the new center is
 * computed from the first buffer in numpy, by the one shape function in
 * skm.kernels.
 *
 * The factorisation takes the Gram block of a candidate order and keeps
 * each candidate whose pivot passes a threshold, writing the packed rows
 * of the lower factor of the kept points and every candidate's pivot.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous
 * float64 of the right shape; anything else raises TypeError or
 * ValueError before a single element is read. Both loops release the GIL.
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
    {"factor_order", factor_order, METH_VARARGS,
     "factor_order(gram, threshold, packed, pivots) -> kept count"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_fastcore", NULL, -1, methods};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    return PyModule_Create(&module);
}
