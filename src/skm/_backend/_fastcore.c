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
 * NaN of either sign in the same pass and raises. A fit's pass then
 * applies the shape to the tile's distances in place while they are in L1
 * and sums it in 8 partial sums, and the tiles' sums, in tile order and 8
 * partial sums again, give the kernel row mean of the new center from the
 * same pass. The distances sum the coordinates in the
 * order k = 0..d-1, as the numpy scan does, so both backends pick the same
 * points.
 *
 * The kernel sums write c * sum_j shape(||x_i - y_j||^2) coef[j, q] into
 * out[i, q] of the (nx, p) out for a (ny, p) coef, query-major: the rows of
 * xs are copied TILE at a time into a coordinate-major scratch, each y
 * row's distances to the tile go into one row buffer, the shape is applied
 * in place and the row is added, times coef[j, q], into an accumulator per
 * x row and coef column, which is added into out times c after every TILE
 * ys. So the vector lanes run over the xs however short the support. A
 * tile of fewer than QUERY_LANES xs, as in a sum of a few queries, and
 * every tile where the CPU lacks AVX-512 run over tiles of ys instead,
 * each x row's kernel values against a tile dotted with each coef column
 * in 8 fixed partial sums. The distances sum the coordinates in the order
 * k = 0..d-1 as scipy's cdist "sqeuclidean" does, with floating-point
 * contraction off, so they are bit-identical to cdist's ((y - x)^2 is
 * (x - y)^2 exactly). The loops are cloned for AVX-512 and AVX2, picked at
 * load time. Where the CPU has
 * AVX-512, the exp shapes take an exp of this file (exp8), within 2 ulp of
 * a correctly rounded exp; the AVX2 and baseline clones call libmvec's
 * vector exp of their width, and the power shape libmvec's vector pow in
 * every clone. So kernel values differ from the numpy backend's in the last
 * bits, and between the AVX-512, AVX2 and SSE2 clones too.
 *
 * Both fits take one step of partial pivoted Cholesky in one trial of one
 * or more centers, try_centers: their coordinates join the support's, the
 * Gram row of each against the kept points and the centers before it is
 * formed with the same distance, shape and dot code, the rows are solved
 * forward against the packed lower factor L, row i at offset i(i+1)/2, and
 * the centers are kept in step order while their pivots pass a threshold.
 * The kept centers then get a pass with the shape sum, and v_m and E_m, the
 * radius and the step's time follow. The greedy fit walks farthest-first
 * and stops at its first dependent candidate or a stop test; the ordered
 * fit tries the candidates of a given order one at a time and drops each
 * dependent one. So the two walks share every routine of a step and differ
 * only in where a candidate comes from and in what a dependent candidate
 * does. Each walk copies the points coordinate-major and keeps their
 * distances to the support and the support's coordinates, for the
 * capacity, in a second block. The packed factor is a bytearray of 16 rows
 * that doubles, up to the capacity, each time it fills, resized with the
 * GIL held between runs of the steps, and is returned cut to the rows
 * kept. Once the walk ends, the weights alpha = L^{-T} v are solved into
 * the record's alpha row as one axpy along each row of L from the last up.
 * v_m takes w'v from the same 8-partial-sum dot as the factor, where the
 * numpy backend uses BLAS, so E_m and the weights may differ from the numpy
 * backend's in the last bits; the supports, skipped candidates and radii
 * do not.
 *
 * A greedy trial holds several centers, served by one pass, where a pass
 * streams more than a core's L2, n (d + 1) doubles above BATCH_BYTES, or
 * where the points times the capacity reach OVERLAP_WORK, the gate that
 * gives the walk a helper below SPLIT_POINTS. After each such pass the walk
 * ranks the LIST farthest points, farthest first and lowest index first on
 * ties, reading only the tiles whose maximum reaches the LIST-th largest
 * tile maximum. The next batch starts at the farthest point and certifies
 * up to BATCH - 1 more centers from the list alone: it lowers the listed
 * distances by each new center with dist_row's arithmetic and takes the
 * farthest listed point while it is strictly farther than the last of the
 * LIST, which bounds every point not listed, as distances only fall. So
 * each center is the one the one-center walk would pick, and its certified
 * distance is the exact radius of the center before it. The pass then
 * runs, for each tile and for each center in order, dist_row, the lowering
 * with its maximum, the shape and the sum into that center's tile sum, so
 * kappa, the distances and every record entry keep the one-center walk's
 * arithmetic while each tile is read once per batch. Where the CPU has
 * AVX-512, a trial of two or more centers solves their rows against the
 * kept rows of L together, each row of L read once for the trial, with one
 * fused dot that keeps each row's 8 partial sums and dot's tree; a lone row
 * is solved row after row with dot, the solve the sweep is held to, so
 * every entry of L is the row-at-a-time solve's. The dependent, ratio and
 * radius tests are made in step order; the centers of a batch after a stop
 * are discarded, and a batch never holds more centers than packed rows are
 * left. Below both gates a greedy trial holds one center, as the ordered
 * walk's always does, and the farthest point is ranked alone.
 *
 * A fit's passes over more than SPLIT_POINTS points, the passes of a
 * greedy fit whose points times capacity reach OVERLAP_WORK, and kernel
 * sums of more than SPLIT_VALUES values run on several threads, up to the
 * CPUs of the process's affinity mask: a pass in chunks of 16 tiles, a
 * kernel sum in blocks of x rows, which the calling thread and its helpers
 * claim one at a time. The helpers may run on every CPU of that mask but
 * the one the calling thread started them on, so none time-shares its CPU
 * with the caller where the kernel does not move threads; with one CPU
 * none starts. A greedy walk with helpers publishes each batch's pass
 * before it forms the centers' pivot rows, so the helpers pass over the
 * points while the calling thread forms the rows and solves them, and the
 * calling thread then claims the chunks left. Its
 * first dependent candidate ends the walk, so the pass made for that one
 * lowers only the walk's own distances; a walk without helpers forms the
 * rows first and passes for the centers kept, and the ordered walk, which
 * drops a dependent candidate and goes on, tests the pivot before it
 * passes. A walk's first job copies the points coordinate-major and sets
 * their distances to +inf, one chunk of points per part. A fit starts its
 * helpers and joins them before it returns; a kernel sum does the same for
 * itself. Each chunk or block writes only its own outputs: each tile's
 * maximum and shape sums, which are ranked and summed in tile order, and
 * an out row, summed in the same order whichever thread runs its block,
 * as the blocks are cut from nx and ny alone. So no result depends
 * on the number of threads or on which thread ran a part. A thread that
 * does not start leaves its work to the calling thread. The bare scan runs
 * on the calling thread alone. A walk keeps its state on its own stack and
 * heap blocks, and the module keeps no mutable static state, so fits in
 * several Python threads at once do not interfere.
 *
 * The kernel sums' scratch, one slot per thread, and a walk's
 * coordinate-major copy and distance block start on a 64-byte cache line
 * (line_malloc). A slot is TILE (d + p + 1) doubles, a multiple of 2048
 * bytes, so every slot, and in it the tile of xs, the accumulators and the
 * row buffer, start on a line, and no two threads write one line.
 * PyMem_Malloc aligns only to 16 bytes: where a tile was full, the last
 * line of one thread's row buffer was then the first of the next thread's
 * tile, and it moved between their cores on every row (false sharing). On
 * a 2-vCPU Xeon VM, in process, with the loop then over ys within each x
 * row, kernel sums of 50000 x 600 values in d = 5 took 0.69-1.14 ns a value
 * as the heap placed the scratch and 0.61-0.76 ns aligned, and 2000 x 2000
 * in d = 2 with 3 coef columns 0.85-0.98 against 0.66-0.79 ns (medians of
 * 21-41 calls, in 4 rounds that alternated the two builds). The walk's
 * blocks start on a line so that a fit's speed does not depend on where the
 * heap put them.
 *
 * Arrays arrive through the buffer protocol and must be C-contiguous
 * float64 (int64 for a fit's order and support indices) of the right
 * shape; anything else raises TypeError or ValueError before a single
 * element is read. Every allocation goes through Python's allocators. The
 * loops release the GIL, and the threads they start never take it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define INLINE_EXP 1
#else
#define INLINE_EXP 0
#endif

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

/* The bytes of a cache line on x86-64 CPUs. */
#define LINE 64

/* bytes bytes that start on a cache line: the first LINE boundary inside a
 * PyMem_Malloc block LINE bytes longer, whose own pointer goes into *block
 * for PyMem_Free. NULL, with *block NULL, when the allocation fails. */
static void *line_malloc(size_t bytes, void **block)
{
    char *p = *block = PyMem_Malloc(bytes + LINE);
    return p == NULL ? NULL : p + (LINE - (uintptr_t)p % LINE) % LINE;
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

/* dist_row's o[j] for j < w against a tile of TILE entries a coordinate,
 * 8 rows at a time, whose sums stay in one vector across the coordinates
 * where dist_row makes d passes over o. The sums start at +0, and +0 + t^2
 * is t^2 exactly, so each o[j] is dist_row's. It reads the tile and writes
 * o up to the next multiple of 8 rows, which both hold. On a 2-vCPU Xeon
 * VM, one thread, query-major kernel sums took 1.09 ns a value against
 * 1.17 with dist_row at fit-deep's evaluate shape (50000 x 600 in d = 5),
 * 1.43 against 1.59 at fit-tall's (100000 x 150 in d = 8) and 1.01 against
 * 1.02 for 20000 x 134 in d = 2 with 3 coef columns (medians of 25
 * alternated calls). */
static inline NO_CONTRACT void dist_tile(double *o, const double *xi, const double *tile,
                                         Py_ssize_t w, Py_ssize_t d)
{
    typedef double V __attribute__((vector_size(64)));
    for (Py_ssize_t j = 0; j < w; j += 8) {
        V s = {0.0}, t;
        for (Py_ssize_t k = 0; k < d; k++) {
            memcpy(&t, tile + k * TILE + j, sizeof t);
            t = xi[k] - t;
            s += t * t;
        }
        memcpy(o + j, &s, sizeof s);
    }
}

/* Radial shape codes, as skm._backend._numpy_impl numbers them. */
enum { SHAPE_SQEXP, SHAPE_EXP, SHAPE_POWER };

#if INLINE_EXP
/* exp of 8 doubles (Tang 1989): n = rint(16 x / ln 2), read from the low
 * bits of x 16/ln2 + 1.5 2^52, and r = x - n ln2/16 in a hi and a lo part,
 * |r| <= ln2/32; expm1(r) by Horner through r^7/5040, whose truncation is
 * below 2^-59; T_j = 2^(j/16) for j = n mod 16 from a table of correctly
 * rounded doubles held in two registers; exp(x) = 2^floor(n/16) (T_j +
 * T_j expm1(r)), scaled by scalef with one rounding, so subnormal results
 * are rounded once and those below half the least subnormal are +0. The
 * lanes of x below -746, where exp rounds to +0, -inf and huge negative x
 * among them, give +0 through scalef's mask, which spares them scalef's
 * slow underflow; a NaN x is not below and stays NaN. Within 2 ulp of a
 * correctly rounded exp for x <= 0 (at most 1.00 ulp from glibc's exp over
 * 4.2M arguments in [-750, 0]). On a 2-vCPU Xeon VM, one thread, kernel
 * sums of 2000 x 600 values in d = 2 took 0.8 ns a value at a = 0.5 and
 * 1.9-4.0 ns at a = 100-1000, where many results underflow; with those x
 * raised to -746 instead of masked, 10-14 ns, and with libmvec's exp, which
 * sends such vectors to its scalar path, 9-15 ns. */
static inline __attribute__((target("avx512f"), always_inline)) __m512d exp8(__m512d x)
{
    const __m512d shift = _mm512_set1_pd(0x1.8p52);
    const __m512d lo = _mm512_set_pd(0x1.5ab07dd485429p+0, 0x1.4bfdad5362a27p+0,
                                     0x1.3dea64c123422p+0, 0x1.306fe0a31b715p+0,
                                     0x1.2387a6e756238p+0, 0x1.172b83c7d517bp+0,
                                     0x1.0b5586cf9890fp+0, 0x1.0000000000000p+0);
    const __m512d hi = _mm512_set_pd(0x1.ea4afa2a490dap+0, 0x1.d5818dcfba487p+0,
                                     0x1.c199bdd85529cp+0, 0x1.ae89f995ad3adp+0,
                                     0x1.9c49182a3f090p+0, 0x1.8ace5422aa0dbp+0,
                                     0x1.7a11473eb0187p+0, 0x1.6a09e667f3bcdp+0);
    const __mmask8 live = _mm512_cmp_pd_mask(x, _mm512_set1_pd(-746.0), _CMP_NLT_UQ);
    __m512d z = _mm512_fmadd_pd(x, _mm512_set1_pd(0x1.71547652b82fep+4), shift);
    __m512d n = _mm512_sub_pd(z, shift);
    __m512d r = _mm512_fnmadd_pd(n, _mm512_set1_pd(0x1.62e42fefa39efp-5), x);
    r = _mm512_fnmadd_pd(n, _mm512_set1_pd(0x1.abc9e3b39803fp-60), r);
    __m512d p = _mm512_fmadd_pd(_mm512_set1_pd(1.0 / 5040), r, _mm512_set1_pd(1.0 / 720));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 120));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 24));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 6));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
    p = _mm512_mul_pd(p, r);
    __m512d t = _mm512_permutex2var_pd(lo, _mm512_castpd_si512(z), hi);
    return _mm512_maskz_scalef_pd(live, _mm512_fmadd_pd(t, p, t),
                                  _mm512_mul_pd(n, _mm512_set1_pd(0.0625)));
}

/* r[j] = exp(s r[j]), or exp(s sqrt(r[j])) for a root shape, over w
 * entries from exp8, 8 at a time and the last ones masked. */
static __attribute__((target("avx512f"))) void exp_row(double *r, Py_ssize_t w, double s, int root)
{
    const __m512d vs = _mm512_set1_pd(s);
    for (Py_ssize_t j = 0; j < w; j += 8) {
        const __mmask8 m = w - j >= 8 ? 0xff : (__mmask8)((1u << (w - j)) - 1);
        __m512d v = _mm512_maskz_loadu_pd(m, r + j);
        if (root)
            v = _mm512_sqrt_pd(v);
        _mm512_mask_storeu_pd(r + j, m, exp8(_mm512_mul_pd(v, vs)));
    }
}
#endif

/* r[j] = shape(r[j]) for the w squared distances of one row. Where the
 * CPU has AVX-512 the exp shapes take exp8; otherwise each kind runs in a
 * loop of its own so that every clone calls libmvec's vector exp or pow of
 * its width. */
static inline NO_CONTRACT void shape_row(double *r, Py_ssize_t w, int kind, double a, double b)
{
    const double na = -a, nb = -b;
#if INLINE_EXP
    if (kind != SHAPE_POWER && __builtin_cpu_supports("avx512f")) {
        exp_row(r, w, na, kind == SHAPE_EXP);
        return;
    }
#endif
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

/* The forward solve x <- L^{-1} x of the packed lower factor L, row i at
 * offset i(i+1)/2, over its rows t0 .. t1 - 1, the entries of x before t0
 * solved already: x_t = (x_t - L_t . x) / L_tt, row after row. */
static inline NO_CONTRACT void forward_rows(const double *packed, double *x, Py_ssize_t t0,
                                            Py_ssize_t t1)
{
    for (Py_ssize_t t = t0; t < t1; t++) {
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

/* sum_j u[j] in 8 partial sums, as dot sums its products. */
static inline NO_CONTRACT double sum8(const double *u, Py_ssize_t w)
{
    double s[8] = {0.0};
    Py_ssize_t j = 0;
    for (; j + 8 <= w; j += 8)
        for (int l = 0; l < 8; l++)
            s[l] += u[j + l];
    for (int l = 0; j < w; j++, l++)
        s[l] += u[j];
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* A farthest point: its index, the int64 bit pattern of its sq (-1 for no
 * points, and then far is -1) and, from a bare scan, the NaN flag. */
typedef struct {
    Py_ssize_t far;
    int64_t top, nan;
} Farthest;

static inline Py_ssize_t tiles_of(Py_ssize_t n)
{
    return (n + TILE - 1) / TILE;
}

/* The bare scan for the center y over the n points of the coordinate-major
 * d x n array xt: each tile's squared distances are formed in r and lowered
 * into sq, sq[i] = min(sq[i], ||x_i - y||^2), and the largest sq is found,
 * lowest index on ties. */
static CLONED Farthest scan_tiles(const double *xt, const double *y, double *sq, Py_ssize_t n,
                                  Py_ssize_t d)
{
    Farthest best = {.far = -1, .top = -1, .nan = 0};
    double r[TILE];
    for (Py_ssize_t i0 = 0; i0 < n; i0 += TILE) {
        Py_ssize_t w = n - i0 < TILE ? n - i0 : TILE, j;
        int64_t mx;
        dist_row(r, y, xt + i0, w, n, d);
        mx = lower_max(sq + i0, r, w, &best.nan);
        if (mx > best.top) {  /* strict: a tie with an earlier tile keeps its index */
            best.top = mx;
            for (j = 0; bits_of(sq[i0 + j]) != mx; j++)
                ;
            best.far = i0 + j;
        }
    }
    return best;
}

/* A fit's pass for its centers, coordinate-major in ys (d doubles each),
 * over the points xt: for each tile, and for each center in order, the
 * tile's squared distances to the center are formed in r and lowered into
 * sq, and shape(r) is formed in place while the tile is in L1 and summed
 * in 8 partial sums into sums[i * tiles + t], center i's sum over tile t.
 * top[t] is then the int64 bit pattern of tile t's largest sq. Each center
 * gets the arithmetic of a pass of its own, so one pass for several
 * centers lowers sq and sums each center's shape bit for bit as one pass
 * per center would, while each tile is read from memory once. */
typedef struct {
    const double *xt;
    double *ys, *sq, *sums;
    int64_t *top;
    Py_ssize_t n, d, tiles, centers;
    int kind;
    double a, b;
} Pass;

static CLONED void pass_tiles(const Pass *p, Py_ssize_t t0, Py_ssize_t t1)
{
    double r[TILE];
    for (Py_ssize_t t = t0; t < t1; t++) {
        Py_ssize_t i0 = t * TILE, w = p->n - i0 < TILE ? p->n - i0 : TILE;
        int64_t mx = -1;
        for (Py_ssize_t i = 0; i < p->centers; i++) {
            dist_row(r, p->ys + i * p->d, p->xt + i0, w, p->n, p->d);
            /* A fit's distances start at +inf, and a NaN distance never
             * replaces one, so none is NaN. */
            mx = lower_max(p->sq + i0, r, w, NULL);
            shape_row(r, w, p->kind, p->a, p->b);
            p->sums[i * p->tiles + t] = sum8(r, w);
        }
        p->top[t] = mx;
    }
}

/* A walk's passes and the kernel sums are cut into parts: a pass into
 * chunks of CHUNK_TILES tiles, a kernel sum into blocks of rows of about
 * BLOCK_VALUES kernel values. A team of threads claims the parts one at a
 * time, so a thread whose CPU is busy elsewhere takes fewer of them. Each
 * part writes only its own entries (its tiles' maxima and sums, its block's
 * rows), whichever thread runs it, so the results do not depend on the
 * number of threads. A pass gets more than one thread above
 * SPLIT_POINTS points and a kernel sum above SPLIT_VALUES values: below, a
 * split scan has too few chunks to share (on a 2-vCPU Xeon VM, a 600-point
 * fit of 10000 points in d = 5 took 18-19 ms with its scans split at 4096
 * points and 18 ms on one thread, most likely read with the helper on the
 * caller's CPU). A greedy walk gets a helper below SPLIT_POINTS points too
 * once its points times capacity reach OVERLAP_WORK, where its pivot rows
 * grow long enough to hide a scan behind: on the same VM, with the helper
 * on the other vCPU, that fit took 11-13 ms against 17-20 ms on one
 * thread. */
#define CHUNK_TILES 16
#define BLOCK_VALUES (1 << 18)
#define SPLIT_POINTS 16384
#define SPLIT_VALUES (1 << 20)
#define OVERLAP_WORK (1 << 22)

/* Rounds of a waiting thread that pause before it starts to yield its CPU:
 * a walk step between two scans takes microseconds. */
#define SPIN 2000

/* The number of threads for `work` items: one per SPLIT_* items or part of
 * them, and at least `least`, up to the CPUs of the process's affinity
 * mask, and one wherever that mask cannot be read. */
static int threads_for(Py_ssize_t work, Py_ssize_t split, int least)
{
    Py_ssize_t parts = work / split + (work % split != 0);
    int cpus = 1;
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        cpus = CPU_COUNT(&set);
#endif
    parts = parts < least ? least : parts;
    return parts < cpus ? (int)parts : cpus;
}

static void wait_round(long *spin)
{
    if ((*spin)++ < SPIN) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
    else
        sched_yield();
}

/* The calling thread, slot 0, and `helpers` started threads, slots 1 on,
 * which run work(ctx, part, slot) over parts 0 .. parts - 1 once per job.
 * The helpers wait for `job` to change, claim parts from `next` and count
 * those done in `finished`; they live until team_stop joins them. */
typedef struct Team Team;

typedef struct {
    Team *team;
    pthread_t id;
    int slot;
} Member;

struct Team {
    void (*work)(void *ctx, Py_ssize_t part, int slot);
    void *ctx;
    Py_ssize_t parts;
    int helpers;
    Member *member;
    atomic_uint job;
    atomic_int quit;
    _Atomic Py_ssize_t next, finished;
};

static void team_claim(Team *t, int slot)
{
    Py_ssize_t part;
    while ((part = atomic_fetch_add_explicit(&t->next, 1, memory_order_acq_rel)) < t->parts) {
        t->work(t->ctx, part, slot);
        atomic_fetch_add_explicit(&t->finished, 1, memory_order_release);
    }
}

static void *team_helper(void *arg)
{
    const Member *m = arg;
    Team *t = m->team;
    for (unsigned job = 0;;) {
        unsigned now;
        long spin = 0;
        while ((now = atomic_load_explicit(&t->job, memory_order_acquire)) == job)
            wait_round(&spin);
        job = now;
        if (atomic_load_explicit(&t->quit, memory_order_relaxed))
            return NULL;
        team_claim(t, m->slot);
    }
}

/* Publish the job work(ctx, part, slot) over the team's parts; the helpers
 * start on it at once. The last job is done, so every part of it has been
 * claimed: a helper late for it finds no part left in it, or, once `next`
 * is reset, claims parts of this one, and the release store of `next`
 * makes the job and its inputs visible to it. */
static void team_begin(Team *t, void (*work)(void *, Py_ssize_t, int), void *ctx)
{
    t->work = work;
    t->ctx = ctx;
    atomic_store_explicit(&t->finished, 0, memory_order_relaxed);
    atomic_store_explicit(&t->next, 0, memory_order_release);
    atomic_fetch_add_explicit(&t->job, 1, memory_order_release);
}

/* The calling thread claims the parts left of the job and waits until
 * every part is done. */
static void team_finish(Team *t)
{
    long spin = 0;
    team_claim(t, 0);
    while (atomic_load_explicit(&t->finished, memory_order_acquire) < t->parts)
        wait_round(&spin);
}

static void team_run(Team *t, void (*work)(void *, Py_ssize_t, int), void *ctx)
{
    team_begin(t, work, ctx);
    team_finish(t);
}

static void team_stop(Team *t)
{
    atomic_store_explicit(&t->quit, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&t->job, 1, memory_order_release);
    for (int h = 0; h < t->helpers; h++)
        pthread_join(t->member[h].id, NULL);
    t->helpers = 0;
}

/* Start threads - 1 helpers for the team's parts, with the GIL held, each
 * allowed every CPU of the process's affinity mask but the one the calling
 * thread runs on; with no CPU left, or off Linux, none starts. Returns -1,
 * with MemoryError set, when their allocation fails. When a thread does not
 * start, those already started are stopped and every job runs on the
 * calling thread alone. */
static int team_start(Team *t, int threads)
{
    t->helpers = 0;
    t->member = NULL;
    atomic_init(&t->job, 0);
    atomic_init(&t->quit, 0);
    atomic_init(&t->next, 0);
    atomic_init(&t->finished, 0);
#if defined(__linux__)
    cpu_set_t set;
    pthread_attr_t attr;
    int cpu;
    if (threads < 2 || sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    if ((cpu = sched_getcpu()) >= 0 && cpu < CPU_SETSIZE)
        CPU_CLR(cpu, &set);
    if (CPU_COUNT(&set) == 0)
        return 0;
    if ((t->member = PyMem_Malloc((threads - 1) * sizeof(Member))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (pthread_attr_init(&attr) != 0)
        return 0;
    if (pthread_attr_setaffinity_np(&attr, sizeof set, &set) == 0)
        for (int h = 0; h < threads - 1; h++) {
            t->member[h] = (Member){.team = t, .slot = h + 1};
            if (pthread_create(&t->member[h].id, &attr, team_helper, &t->member[h]) != 0) {
                team_stop(t);
                break;
            }
            t->helpers = h + 1;
        }
    pthread_attr_destroy(&attr);
#endif
    return 0;
}

/* Chunk c of a pass: tiles c * CHUNK_TILES on. */
static void pass_chunk(void *ctx, Py_ssize_t c, int slot)
{
    const Pass *p = ctx;
    Py_ssize_t t1 = (c + 1) * CHUNK_TILES;
    pass_tiles(p, c * CHUNK_TILES, t1 < p->tiles ? t1 : p->tiles);
}

static PyObject *farthest_scan(PyObject *self, PyObject *args)
{
    PyObject *po, *so;
    Py_ssize_t j, far;
    Views vs = {.count = 0};
    if (!PyArg_ParseTuple(args, "OnO", &po, &j, &so))
        return NULL;
    const double *xt = borrow(&vs, po, "coords", 2, -1, 0);
    Py_ssize_t d = xt ? vs.view[0].shape[0] : 0, n = xt ? vs.view[0].shape[1] : 0;
    double *sq = xt ? borrow(&vs, so, "sqdist", 1, n, 1) : NULL;
    if (sq != NULL && (j < 0 || j >= n))
        PyErr_Format(PyExc_ValueError, "index %zd out of range for n=%zd", j, n);
    double *y = NULL;
    if (!PyErr_Occurred() && (y = PyMem_Malloc(d * sizeof(double))) == NULL)
        PyErr_NoMemory();
    if (PyErr_Occurred()) {
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t k = 0; k < d; k++)
        y[k] = xt[k * n + j];
    Farthest f = scan_tiles(xt, y, sq, n, d);
    far = f.nan ? -1 : f.far;
    Py_END_ALLOW_THREADS
    PyMem_Free(y);
    /* scan_tiles finds no farthest point among negative distances, nor
     * any when one is NaN; sq has already been lowered */
    if (far < 0 || !(sq[far] >= 0.0))
        PyErr_SetString(PyExc_ValueError, "the farthest sqdist entry is negative or NaN");
    release(&vs);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(far);
}

/* The fewest x rows a tile runs query-major with. The query-major loop
 * spends 40-50 ns on each y row for a tile of 1-4 xs and 20-30 ns for 8-16,
 * so a tile of few xs, in a sum of few queries or at the end of any sum,
 * runs over tiles of ys instead: each x row's distances to such a tile go
 * into the row buffer, the shape is applied in place and the row is dotted
 * with each coef column in 8 fixed partial sums. On a 2-vCPU Xeon VM, one
 * thread, one x row against 10000 ys in d = 5 took 43 ns a value
 * query-major and 5.5-6 over tiles of ys, 4 rows 12 against 2.4-2.5 ns, 16
 * rows 1.8 against 1.4-1.6, and 32 rows 1.4 against 1.3-1.4; against 150
 * ys in d = 8, 32 rows took 2.3 ns either way and 64 rows 1.9 against
 * 2.0-2.1. Where the CPU lacks AVX-512 no tile runs query-major: with the
 * AVX-512 clones left out of a build on the same VM, one thread, the AVX2
 * clone's query-major loop, with libmvec's 4-wide exp, took 3.1 ns a value
 * at fit-tall's evaluate shape (100000 x 150 in d = 8) against 2.6 over
 * tiles of ys, 2.6 against 2.0 at fit-deep's (50000 x 600 in d = 5) and
 * 2.1 against 1.8 for 2000 x 2000 in d = 2 with 3 coef columns (medians of
 * 5 alternated rounds of 9 calls). */
#define QUERY_LANES 32

/* out[i, q] = c * sum_j shape(||x_i - y_j||^2) coef[j, q] for the nx rows
 * of x against the ny rows of y and the p columns of coef, TILE x rows at a
 * time. scratch holds TILE x (d + p + 1) doubles: the tile of xs,
 * coordinate-major, an accumulator per x row and coef column, and the row
 * of one y's kernel values against the tile, which is added into each
 * column's accumulators times coef[j, q]. The accumulators are added into
 * out times c after every TILE ys. A tile of fewer than QUERY_LANES xs, or
 * any tile where the CPU lacks AVX-512, takes the same scratch for a tile
 * of ys, one of coef and the row buffer.
 * Each thread's scratch starts on a cache line and each of its parts is a
 * whole number of lines long, so the lines one thread writes are its own.
 * On a 2-vCPU Xeon VM, one thread, with exp8, sums of fit-tall's evaluate
 * (100000 x 150 values in d = 8) took 1.6 ns a value query-major, against
 * 2.0-2.3 ns over tiles of ys with libmvec's exp, and of fit-deep's (50000
 * x 600 in d = 5) 1.1-1.3 against 1.5-1.7 ns (medians of 15 calls, in
 * alternated rounds). */
static CLONED void kernel_tiles(const double *x, Py_ssize_t nx, const double *y, Py_ssize_t ny,
                                Py_ssize_t d, const double *coef, Py_ssize_t p, int kind,
                                double a, double b, double c, double *out, double *scratch)
{
    double *tile = scratch, *acc = tile + TILE * d, *r = acc + TILE * p;
    Py_ssize_t lanes = TILE + 1;
#if INLINE_EXP
    if (__builtin_cpu_supports("avx512f"))
        lanes = QUERY_LANES;
#endif
    for (Py_ssize_t i0 = 0; i0 < nx; i0 += TILE) {
        Py_ssize_t w = nx - i0 < TILE ? nx - i0 : TILE;
        double *o = out + i0 * p;
        memset(o, 0, w * p * sizeof(double));
        if (w < lanes) {
            for (Py_ssize_t j0 = 0; j0 < ny; j0 += TILE) {
                Py_ssize_t v = ny - j0 < TILE ? ny - j0 : TILE;
                load_tile(tile, y, j0, v, v, d);
                load_tile(acc, coef, j0, v, v, p);
                for (Py_ssize_t i = 0; i < w; i++) {
                    dist_row(r, x + (i0 + i) * d, tile, v, v, d);
                    shape_row(r, v, kind, a, b);
                    for (Py_ssize_t q = 0; q < p; q++)
                        o[i * p + q] += c * dot(r, acc + q * v, v);
                }
            }
            continue;
        }
        load_tile(tile, x, i0, w, TILE, d);
        for (Py_ssize_t k = 0; k < d; k++) /* the rows dist_tile reads past w */
            memset(tile + k * TILE + w, 0, (-w & 7) * sizeof(double));
        for (Py_ssize_t j0 = 0; j0 < ny; j0 += TILE) {
            Py_ssize_t j1 = ny - j0 < TILE ? ny : j0 + TILE;
            memset(acc, 0, TILE * p * sizeof(double));
            for (Py_ssize_t j = j0; j < j1; j++) {
                dist_tile(r, y + j * d, tile, w, d);
                shape_row(r, w, kind, a, b);
                for (Py_ssize_t q = 0; q < p; q++) {
                    const double cq = coef[j * p + q];
                    double *aq = acc + q * TILE;
                    for (Py_ssize_t i = 0; i < w; i++)
                        aq[i] += cq * r[i];
                }
            }
            for (Py_ssize_t i = 0; i < w; i++)
                for (Py_ssize_t q = 0; q < p; q++)
                    o[i * p + q] += c * acc[q * TILE + i];
        }
    }
}

/* A kernel sum in blocks of `rows` x rows, with a scratch per thread. */
typedef struct {
    const double *x, *y, *coef;
    double *out, *scratch;
    Py_ssize_t nx, ny, d, p, rows;
    int kind;
    double a, b, c;
} KernelSum;

static void kernel_block(void *ctx, Py_ssize_t part, int slot)
{
    const KernelSum *k = ctx;
    Py_ssize_t i0 = part * k->rows, rows = k->nx - i0 < k->rows ? k->nx - i0 : k->rows;
    kernel_tiles(k->x + i0 * k->d, rows, k->y, k->ny, k->d, k->coef, k->p, k->kind, k->a, k->b,
                 k->c, k->out + i0 * k->p, k->scratch + slot * TILE * (k->d + k->p + 1));
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
    /* Blocks of x rows of about BLOCK_VALUES values, cut from nx and ny
     * alone: every x row falls in the same block and tile, and so runs the
     * same loop in the same order, whichever thread runs that block. Where
     * nx holds two or more, the blocks are whole tiles, whose full width
     * the query-major loop spends its cost per y row on; fewer xs keep the
     * shorter blocks, so that a sum of few queries above SPLIT_VALUES still
     * splits. On a 2-vCPU Xeon VM, kernel sums of 2000 x 2000 values in
     * d = 2 with 3 coef columns took 1.68 ns a value on one thread in blocks
     * of 256 rows and 1.78 in blocks of 132, and 0.94 against 0.98 on two
     * (medians of 25 alternated calls). */
    Py_ssize_t rows = BLOCK_VALUES / (ny > 0 ? ny : 1) + 1;
    const Py_ssize_t whole = (rows + TILE - 1) / TILE * TILE;
    if (nx >= 2 * whole)
        rows = whole;
    KernelSum k = {.x = x, .y = y, .coef = coef, .out = out, .nx = nx, .ny = ny, .d = d, .p = p,
                   .rows = rows, .kind = kind, .a = a, .b = b, .c = c};
    Team team = {.parts = (nx + rows - 1) / rows};
    int threads = threads_for(nx * ny, SPLIT_VALUES, 1);
    void *block = NULL;
    if (!PyErr_Occurred()
        && (k.scratch = line_malloc(threads * TILE * (d + p + 1) * sizeof(double), &block))
               == NULL)
        PyErr_NoMemory();
    if (PyErr_Occurred() || team_start(&team, threads) < 0) {
        PyMem_Free(block);
        release(&vs);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    team_run(&team, kernel_block, &k);
    team_stop(&team);
    Py_END_ALLOW_THREADS
    PyMem_Free(team.member);
    PyMem_Free(block);
    release(&vs);
    Py_RETURN_NONE;
}

/* The Gram row g_t = c * shape(||xi - x_t||^2) of the candidate xi against
 * the kept points x_t, coordinate-major in kt with ld entries per
 * coordinate, into w: the candidate's packed row of L, which the forward
 * solve w_t = (g_t - L_t . w) / L_tt then turns into L's row, whose pivot
 * is c - w'w, since g_ii = c * shape(0) = c for every shape. */
static inline NO_CONTRACT void gram_row(double *w, Py_ssize_t kept, const double *xi,
                                        const double *kt, Py_ssize_t ld, Py_ssize_t d, int kind,
                                        double a, double b, double c)
{
    dist_row(w, xi, kt, kept, ld, d);
    shape_row(w, kept, kind, a, b);
    for (Py_ssize_t t = 0; t < kept; t++)
        w[t] *= c;
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

/* Most centers one greedy pass serves, and the points ranked after each
 * batched pass: the LIST - 1 farthest are listed, and the distance of the
 * next one bounds every point not listed. A greedy walk batches once a pass
 * streams more than a core's L2, n (d + 1) doubles above BATCH_BYTES, so
 * that each tile is read once a batch, or once its points times capacity
 * reach OVERLAP_WORK, where its pivot rows grow long enough that solving a
 * batch's rows in one sweep of the factor pays. On a 2-vCPU Xeon VM, a
 * 600-point fit of 10000 points in d = 5 (0.48 MB) took 12.9-14.0 ms one
 * center a pass and 8.7-10.1 ms batched (medians of 15), while fits of 3000
 * and 4000 points in d = 2 below both gates took 30-90% longer batched
 * (306 us against 401-442 us, 113 us against 199-215 us): the ranking and
 * the centers a stop discards cost more than the passes and sweeps
 * saved. */
#define BATCH 8
#define LIST 33
#define BATCH_BYTES (1 << 21)

/* The forward solve of nb right-hand sides x[0] .. x[nb - 1], at most
 * BATCH, over the first m rows of L. Where the CPU has AVX-512, and so runs
 * the avx512f clones, and nb is 2 or more, each row of L is read once for
 * all of them, and each x_i[t] takes dot(L_t, x_i, t) bit for bit: its 8
 * partial sums are the 8 lanes of one vector register, summed with dot's
 * tree. On a 2-vCPU Xeon VM pinned to one vCPU, the forward solves of a
 * 600-point fit of 10000 points in d = 5 took 7.0-8.5 ms row at a time and
 * 3.5-5.1 ms in sweeps of up to 8 rows (medians of 15 fits). A lone
 * right-hand side, and every one elsewhere, is solved on its own by
 * forward_rows: the 8 lanes take 2 registers in the avx2 clones and 4 in
 * the default ones, and with the avx2 clones forced on the same VM the
 * whole fit took 31-33 ms in sweeps against 22-23 ms row at a time. */
#if defined(__GNUC__) && defined(__x86_64__)
typedef double Lanes __attribute__((vector_size(8 * sizeof(double))));

static inline ALWAYS_INLINE NO_CONTRACT void forward_lanes(const double *packed,
                                                           double *const *x, int nb,
                                                           Py_ssize_t m)
{
    for (Py_ssize_t t = 0; t < m; t++) {
        const double *row = packed + t * (t + 1) / 2;
        Lanes s[BATCH], u, v;
        Py_ssize_t j = 0;
        for (int i = 0; i < nb; i++)
            s[i] = (Lanes){0.0};
        for (; j + 8 <= t; j += 8) {
            memcpy(&u, row + j, sizeof u);
            for (int i = 0; i < nb; i++) {
                memcpy(&v, x[i] + j, sizeof v);
                s[i] += u * v;
            }
        }
        for (int i = 0; i < nb; i++) {
            double p[8];
            memcpy(p, &s[i], sizeof p);
            for (Py_ssize_t jj = j, l = 0; jj < t; jj++, l++)
                p[l] += row[jj] * x[i][jj];
            const double sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
            x[i][t] = (x[i][t] - sum) / row[t];
        }
    }
}
#endif

static inline ALWAYS_INLINE NO_CONTRACT void forward_block(const double *packed, double *const *x,
                                                           Py_ssize_t nb, Py_ssize_t m)
{
#if defined(__GNUC__) && defined(__x86_64__)
    /* nb is a constant in each call, so each keeps its sums in registers;
     * a lone row takes forward_rows, the solve the sweep is held to */
    if (nb > 1 && __builtin_cpu_supports("avx512f")) {
        switch (nb) {
        case 2: forward_lanes(packed, x, 2, m); return;
        case 3: forward_lanes(packed, x, 3, m); return;
        case 4: forward_lanes(packed, x, 4, m); return;
        case 5: forward_lanes(packed, x, 5, m); return;
        case 6: forward_lanes(packed, x, 6, m); return;
        case 7: forward_lanes(packed, x, 7, m); return;
        default: forward_lanes(packed, x, BATCH, m); return;
        }
    }
#endif
    for (Py_ssize_t i = 0; i < nb; i++)
        forward_rows(packed, x[i], 0, m);
}

/* What every step of a fit reads and writes: the points as the caller
 * gave them in x, coordinate-major in xt, their squared distances to the
 * support in sq, the order of an ordered walk (NULL for the greedy one),
 * the indices and record for cap points, the support's coordinates,
 * coordinate-major with cap entries per coordinate, in kt, the team and
 * its pass, of up to `batch` centers (1 unless a greedy walk batches), and
 * the points ranked after the last pass: the `listed` farthest, farthest
 * first and lowest index first on ties. */
typedef struct {
    const double *x;
    double *xt, *sq, *record, *kt;
    Team *team;
    Pass pass;
    Py_ssize_t n, d, cap, count, batch;
    int kind, listed;
    double a, b, c, threshold, epsilon;
    const int64_t *order;
    int64_t *indices;
    Farthest list[LIST];
    struct timespec t0;
} Walk;

/* Chunk c of a walk's first job: its points copied coordinate-major into
 * xt and their distances to the support set to +inf. */
static void load_chunk(void *ctx, Py_ssize_t c, int slot)
{
    const Walk *w = ctx;
    Py_ssize_t i0 = c * CHUNK_TILES * TILE, i1 = i0 + CHUNK_TILES * TILE;
    i1 = i1 < w->n ? i1 : w->n;
    load_tile(w->xt + i0, w->x, i0, i1 - i0, w->n, w->d);
    for (Py_ssize_t i = i0; i < i1; i++)
        w->sq[i] = INFINITY;
}

/* Offer point i, whose sq has the bit pattern bits, to the list of the
 * `size` farthest points, *count of them so far, farthest first. Points are
 * offered in increasing index order, so a point joins behind those as far
 * as it and only when strictly farther than the last of a full list: the
 * lowest index wins a tie. */
static void rank(Farthest *list, int *count, int size, Py_ssize_t i, int64_t bits)
{
    int p = *count < size ? *count : size - 1;
    if (*count == size && bits <= list[size - 1].top)
        return;
    for (; p > 0 && list[p - 1].top < bits; p--)
        list[p] = list[p - 1];
    list[p] = (Farthest){.far = i, .top = bits};
    *count += *count < size;
}

/* After a pass, rank the `size` farthest points into the walk's list. The
 * size-th largest tile maximum bounds them from below, since the tiles of
 * the size largest maxima hold size points at least as far; so only the
 * tiles that reach it are read, each only while its maximum could still
 * displace the last listed point. */
static void rank_points(Walk *w, int size)
{
    const Pass *p = &w->pass;
    Farthest *list = w->list;
    int count = 0;
    for (Py_ssize_t t = 0; t < p->tiles; t++)
        rank(list, &count, size, t, p->top[t]);
    const int64_t bound = count == size ? list[size - 1].top : -1;
    count = 0;
    for (Py_ssize_t t = 0; t < p->tiles; t++) {
        if (p->top[t] < bound)
            continue;
        Py_ssize_t i1 = (t + 1) * TILE < w->n ? (t + 1) * TILE : w->n;
        for (Py_ssize_t i = t * TILE; i < i1 && (count < size || p->top[t] > list[size - 1].top);
             i++)
            if (bits_of(w->sq[i]) >= bound)
                rank(list, &count, size, i, bits_of(w->sq[i]));
    }
    w->listed = count;
}

/* Run the pass for the first `centers` of the pass's centers: the team
 * starts on it, and pass_end waits for it and ranks the points. */
static void pass_begin(Walk *w, Py_ssize_t centers)
{
    w->pass.centers = centers;
    team_begin(w->team, pass_chunk, &w->pass);
}

static void pass_end(Walk *w, int size)
{
    team_finish(w->team);
    rank_points(w, size);
}

/* The trial of both walks: the b centers of the pass, 1 to BATCH, tried as
 * support points k on, in step order. Their coordinates go into kt first,
 * so that each center's Gram row is one dist_row against the kept points
 * and the centers before it; all b rows are formed, then solved against
 * the k kept rows of L together (forward_block), and then each solves
 * against the rows of the centers before it and takes its pivot. A center
 * whose pivot passes the threshold finishes its row with the pivot's
 * square root. Writes each tried center's pivot and returns the number
 * kept, up to the first whose pivot fails; the coordinates of the centers
 * not kept stay in kt past the support, for the next trial to overwrite. */
static inline ALWAYS_INLINE NO_CONTRACT Py_ssize_t try_centers(const Walk *w, double *packed,
                                                               Py_ssize_t k, Py_ssize_t b,
                                                               double *pivot)
{
    double *rows[BATCH];
    for (Py_ssize_t i = 0; i < b; i++)
        for (Py_ssize_t q = 0; q < w->d; q++)
            w->kt[q * w->cap + k + i] = w->pass.ys[i * w->d + q];
    for (Py_ssize_t i = 0; i < b; i++) {
        rows[i] = packed + (k + i) * (k + i + 1) / 2;
        gram_row(rows[i], k + i, w->pass.ys + i * w->d, w->kt, w->cap, w->d, w->kind, w->a,
                 w->b, w->c);
    }
    forward_block(packed, rows, b, k);
    for (Py_ssize_t i = 0; i < b; i++) {
        forward_rows(packed, rows[i], k, k + i);
        if (!((pivot[i] = w->c - dot(rows[i], rows[i], k + i)) > w->threshold))
            return i;
        rows[i][k + i] = sqrt(pivot[i]);
    }
    return b;
}

/* Record candidate j, kept as support point k and center i of the last
 * pass, as skm._backend._numpy_impl's _Walk.step does: kappa from the
 * center's tile sums, in tile order whatever thread formed each, v_m, E_m,
 * the index, the radius sqrt(far_sq) and the seconds. */
static inline ALWAYS_INLINE NO_CONTRACT void keep(const Walk *w, const double *packed, Py_ssize_t k,
                                                  Py_ssize_t j, Py_ssize_t i, double far_sq,
                                                  double seconds)
{
    const Py_ssize_t cap = w->cap;
    const double *row = packed + k * (k + 1) / 2;
    double *kappa = w->record + REC_KAPPA * cap, *v = w->record + REC_V * cap,
           *e = w->record + REC_E * cap;
    kappa[k] = w->c * sum8(w->pass.sums + i * w->pass.tiles, w->pass.tiles) / (double)w->n;
    v[k] = (kappa[k] - dot(row, v, k)) / row[k];
    e[k] = (k ? e[k - 1] : 0.0) - v[k] * v[k];
    w->indices[k] = j;
    w->record[REC_RADIUS * cap + k] = sqrt(far_sq);
    w->record[REC_SECONDS * cap + k] = seconds;
}

static inline double double_of(int64_t bits)
{
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The centers of a greedy step from the candidate cand, at most `most`
 * (and 1 unless the walk batches), into batch, their coordinates into the
 * pass's centers. cand is the farthest point, the first listed. Each
 * further center is certified from the list alone: the listed distances
 * are lowered by the last center as dist_row and the pass form and lower
 * them, and the farthest listed point, lowest index on ties, is the next
 * center while it is strictly farther than the bound, the distance of the
 * point after the list: no point not listed is farther, and distances only
 * fall. Its sq, in batch[b].top, is then the radius of the center before
 * it, squared. Returns the number of centers. */
static inline ALWAYS_INLINE NO_CONTRACT Py_ssize_t certify(const Walk *w, Py_ssize_t cand,
                                                           Py_ssize_t most, Farthest *batch)
{
    const Py_ssize_t n = w->n, d = w->d;
    const int tracked = w->listed < LIST ? w->listed : LIST - 1;
    const int64_t bound = w->listed == LIST ? w->list[LIST - 1].top : -1;
    double sq[LIST];
    Py_ssize_t b = 0;
    most = most < w->batch ? most : w->batch;
    for (int l = 0; l < tracked; l++)
        sq[l] = double_of(w->list[l].top);
    batch[0] = (Farthest){.far = cand, .top = -1};
    for (;;) {
        double *y = w->pass.ys + b * d;
        for (Py_ssize_t q = 0; q < d; q++)
            y[q] = w->xt[q * n + batch[b].far];
        if (++b == most)
            return b;
        Farthest best = {.far = -1, .top = -1};
        for (int l = 0; l < tracked; l++) {
            double r;
            dist_row(&r, y, w->xt + w->list[l].far, 1, n, d);
            sq[l] = r < sq[l] ? r : sq[l];
            const int64_t bits = bits_of(sq[l]);
            if (bits > best.top || (bits == best.top && w->list[l].far < best.far))
                best = (Farthest){.far = w->list[l].far, .top = bits};
        }
        if (best.top <= bound)
            return b;
        batch[b] = best;
    }
}

/* Greedy steps from support size *m and candidate *cand, as
 * skm._backend._numpy_impl.greedy_fit describes them, with room for `rows`
 * rows in the packed factor. Each round serves a batch of certified centers
 * with one pass, never more than the rows left. A walk with helpers begins
 * the pass before the calling thread forms the batch's pivot rows, and a
 * dependent center, which ends it, lowers only the walk's own distances;
 * one without them forms the rows first and passes over the centers kept.
 * The stop tests are then made in step order, and the centers of the batch
 * after a stop are discarded, their record columns untouched. Leaves the
 * new support size in *m and the dependent or next candidate in *cand, and
 * returns the stop code. */
static CLONED int greedy_steps(Walk *w, double *packed, Py_ssize_t rows, Py_ssize_t *m,
                               Py_ssize_t *cand)
{
    const Py_ssize_t cap = w->cap;
    const int ahead = w->team->helpers > 0, size = w->batch > 1 ? LIST : 1;
    double *pivots = w->record + REC_PIVOT * cap;
    const double *e = w->record + REC_E * cap, *radius = w->record + REC_RADIUS * cap;
    for (Py_ssize_t k = *m;;) {
        if (k == rows)  /* rows is at most the capacity */
            return k == cap ? STOP_BUDGET : GROW;
        Farthest batch[BATCH + 1];
        double pivot[BATCH];
        const Py_ssize_t b = certify(w, *cand, rows - k, batch);
        if (ahead)
            pass_begin(w, b);
        const Py_ssize_t kept = try_centers(w, packed, k, b, pivot);
        if (!ahead && kept > 0)
            pass_begin(w, kept);
        if (ahead || kept > 0)
            pass_end(w, size);
        if (kept == b)  /* the farthest point once every center is kept */
            batch[b] = w->list[0];
        const double now = seconds_since(&w->t0);
        for (Py_ssize_t i = 0; i < kept; i++) {
            pivots[k] = pivot[i];
            keep(w, packed, k, batch[i].far, i, double_of(batch[i + 1].top), now);
            *cand = batch[i + 1].far;
            *m = ++k;
            double span = fabs(e[0] - e[k - 1]);
            if (k > 1 && (span == 0.0 ? 0.0 : fabs(e[k - 2] - e[k - 1]) / span) <= w->epsilon)
                return STOP_RATIO;
            if (radius[k - 1] == 0.0)
                return STOP_RADIUS;
        }
        if (kept < b) {
            pivots[k] = pivot[kept];
            *cand = batch[kept].far;
            return STOP_DEPENDENT;
        }
    }
}

/* Ordered steps from support size *m at position *i of the order: each
 * candidate, copied into the pass's first center, is tried alone and kept
 * or dropped in turn, its pivot tested before its pass, since the walk
 * goes on past a dependent one, until the order is used up (STOP_BUDGET)
 * or the packed factor, with room for `rows` rows, is full (GROW). A
 * dropped candidate changes nothing but the record's pivot of point *m. */
static CLONED int order_steps(Walk *w, double *packed, Py_ssize_t rows, Py_ssize_t *m,
                              Py_ssize_t *i)
{
    const Py_ssize_t n = w->n, d = w->d;
    double *pivots = w->record + REC_PIVOT * w->cap, *y = w->pass.ys;
    for (; *i < w->count; ++*i) {
        const Py_ssize_t j = w->order[*i];
        if (*m == rows)
            return GROW;
        for (Py_ssize_t q = 0; q < d; q++)
            y[q] = w->xt[q * n + j];
        if (try_centers(w, packed, *m, 1, pivots + *m) == 0)
            continue;
        pass_begin(w, 1);
        pass_end(w, 1);
        keep(w, packed, *m, j, 0, double_of(w->list[0].top), seconds_since(&w->t0));
        ++*m;
    }
    return STOP_BUDGET;
}

/* Both fits: parse and check the arguments, run the walk, greedy from the
 * candidate `first` or along `order`, and return its result, with the
 * packed factor cut to the m kept rows. Each time the factor grows, the
 * walk runs the pending signal handlers first, so a handler that raises,
 * as Python's SIGINT handler does, ends the walk with its exception. */
static PyObject *walk(PyObject *args, int ordered)
{
    PyObject *xo, *oo = NULL, *io, *ro, *packed = NULL;
    Team team = {.helpers = 0, .member = NULL};
    Walk w = {.xt = NULL, .sq = NULL, .epsilon = 0.0, .order = NULL, .count = 0, .team = &team,
              .listed = 0};
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
    const double *x = w.x = borrow(&vs, xo, "points", 2, -1, 0);
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
    /* a greedy walk whose pivot rows are long enough takes a helper to pass
     * while it forms them, and batches its centers */
    const int overlap = !ordered && (double)w.n * (double)w.cap >= OVERLAP_WORK;
    w.batch = overlap || (!ordered && (double)w.n * (double)(w.d + 1) * sizeof(double)
                                          > BATCH_BYTES) ? BATCH : 1;
    /* The points coordinate-major in a block of their own, only the 64 bytes
     * of line_malloc longer than the (n, d) arrays a caller allocates and
     * frees, so the heap can still reuse their space (in one block with the
     * distances, four fit and evaluate cycles on 100000 x 8 points peaked
     * 6.5 MB higher; with the 64 bytes added, no workload's median peak RSS
     * rose in BENCH_43.json's pairs); then the distances to the
     * support, the support's and the pass's centers' coordinates and the
     * centers' sums per tile; then each tile's largest distance. */
    Py_ssize_t tiles = tiles_of(w.n), ys = w.batch * w.d;
    team.parts = (tiles + CHUNK_TILES - 1) / CHUNK_TILES;
    int64_t *top = NULL;
    void *xt_block = NULL, *sq_block = NULL;
    if (!PyErr_Occurred()
        && ((w.xt = line_malloc(w.n * w.d * sizeof(double), &xt_block)) == NULL
            || (w.sq = line_malloc((w.n + w.cap * w.d + ys + w.batch * tiles) * sizeof(double),
                                   &sq_block)) == NULL
            || (top = PyMem_Malloc(tiles * sizeof(int64_t))) == NULL))
        PyErr_NoMemory();
    if (!PyErr_Occurred())
        packed = PyByteArray_FromStringAndSize(NULL, 0);
    if (packed != NULL) {
        w.kt = w.sq + w.n;
        w.pass = (Pass){.xt = w.xt, .ys = w.kt + w.cap * w.d, .sq = w.sq,
                        .sums = w.kt + w.cap * w.d + ys, .top = top, .n = w.n, .d = w.d,
                        .tiles = tiles, .kind = w.kind, .a = w.a, .b = w.b};
        if (team_start(&team, threads_for(w.n, SPLIT_POINTS, overlap ? 2 : 1)) < 0)
            Py_CLEAR(packed);
    }
    if (packed != NULL) {
        Py_BEGIN_ALLOW_THREADS
        team_run(&team, load_chunk, &w);
        Py_END_ALLOW_THREADS
    }
    while (packed != NULL && stop == GROW) {
        Py_ssize_t rows = 2 * m > 16 ? 2 * m : 16;
        rows = rows < w.cap ? rows : w.cap;
        if (PyErr_CheckSignals() < 0
            || PyByteArray_Resize(packed, rows * (rows + 1) / 2 * sizeof(double)) < 0)
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
    team_stop(&team);
    PyMem_Free(team.member);
    PyMem_Free(top);
    PyMem_Free(xt_block);
    PyMem_Free(sq_block);
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
