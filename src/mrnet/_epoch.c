/* Compiled inner loops of mrnet, loaded by _kernel.py.

   mrnet_epochs runs epochs of projected AdaGrad ascent on the
   penalized Bernoulli log-likelihood, and after each epoch imposes the
   sparsity cap and writes the nonzero count.  An untraced fit runs all
   its epochs in one call.  Each epoch's order is drawn just before it
   from the fit's own numpy generator, through numpy's C interface
   bitgen_t, with numpy's rejection step (random_interval) and shuffle:
   the orders, and the generator's state after them, are those of one
   rng.permutation call per epoch.  The epochs follow the numpy
   reference in estimation.py operation for operation:

   - a step's gradient is taken at the parameters before the step, and
     is accumulated per row in batch order, heads before tails, as
     np.add.at does;
   - the elastic-net term, the AdaGrad update and the ball projection
     of each touched row use the same expressions in the same order;
   - row norms use numpy's pairwise summation;
   - the cap keeps what project_l0's stable argsort keeps.

   They read the observations as packed records, four int32 (head,
   tail, relation, label) in 16 bytes, which _kernel.Fit builds once
   per fit: a step then waits on one cache line where four columns
   would take four, and the batch loop prefetches the record it will
   read PREFETCH steps later.  The head loop of a batch computes each
   observation's residual and head and relation gradients, and also
   writes its tail-gradient term to a per-batch buffer; the tail loop
   then only adds those terms to the tail rows in batch order, so the
   sums keep np.add.at's order without reading a parameter row again.
   update_rows updates two entries of a row at a time with GCC vector
   extensions.  IEEE 754 rounds +, -, *, / and sqrt correctly lane by
   lane, each entry sees the same operations in the same order, and
   each row norm keeps pairwise_sum's order, so the bits are those of
   the one-entry-at-a-time loop.

   mrnet_scores writes the scores of given edges or of a run of slots,
   for train's objective and the loss scan, and mrnet_rank_counts
   counts, per test edge, the unfiltered candidates scoring above and
   tied with it, for mrnet.evaluation.

   Every export takes one argument record, struct fit, by pointer.
   _kernel.py mirrors it in a ctypes Structure whose layout it checks
   against mrnet_fit_layout when it loads the library.

   Every score sums the latent axis in order, as models.scores'
   three-operand einsum does, so scores agree with numpy bit for bit.
   What remains different is libm's exp, which numpy replaces with its
   own SIMD version, so training trajectories agree to rounding, not
   bit for bit.  The build passes -ffp-contract=off so the compiler
   does not fuse a*b+c into an FMA. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

enum { DISTANCE = 0, BILINEAR = 1, COMBINED = 2 };

/* numpy's pairwise summation (add.reduce over one contiguous run) */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

#define INLINE static inline __attribute__((always_inline))

/* models.scores for one edge, bit for bit; w is the relation row */
static double edge_score(int kind, int64_t d, const double *h,
                         const double *t, const double *w)
{
    double acc = 0.0;
    for (int64_t j = 0; j < d; j++) {
        if (kind == BILINEAR) {
            acc += h[j] * w[j] * t[j];
        } else {
            double v = h[j] + w[j] - t[j];
            acc += kind == DISTANCE ? v * v : w[d + j] * v * v;
        }
    }
    return kind == DISTANCE ? w[d] - acc : acc;
}

/* edge_score for epoch: inlined into its batch loop, it made a step slower */
static __attribute__((noinline)) double step_score(int kind, int64_t d,
                                                   const double *h,
                                                   const double *t,
                                                   const double *w)
{
    return edge_score(kind, d, h, t, w);
}

/* models.sigmoid, clamped strictly inside (0, 1) */
static double sigmoid(double x)
{
    double e = exp(-fabs(x));
    double p = (x >= 0 ? 1.0 : e) / (1.0 + e);
    if (p < 0x1p-1074)
        p = 0x1p-1074;
    else if (p > 0x1.fffffffffffffp-1)
        p = 0x1.fffffffffffffp-1;
    return p;
}

/* Lists row in rows the first time a batch touches it, without a
   branch on the mark, which rows drawn at random make hard to predict:
   the row is always written at rows[*n_rows] and counted only if new,
   so a list never takes more slots than its batch has touches. */
INLINE void touch(int64_t row, unsigned char *mark, int64_t *rows,
                  int64_t *n_rows)
{
    rows[*n_rows] = row;
    *n_rows += !mark[row];
    mark[row] = 1;
}

/* Two doubles; load2 and store2 move them from and to any address */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

INLINE v2d load2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

INLINE void store2(double *p, v2d v)
{
    memcpy(p, &v, sizeof v);
}

INLINE v2d sqrt2(v2d v)
{
#ifdef __SSE2__
    return (v2d)_mm_sqrt_pd((__m128d)v);
#else
    return (v2d){sqrt(v[0]), sqrt(v[1])};
#endif
}

/* Penalty, AdaGrad update and ball projection of the touched rows of
   one block, two entries at a time and the last of an odd width alone;
   leaves the gradient rows zeroed and the marks cleared.  A row norm
   below 8 entries is summed in place, as pairwise_sum does it. */
static void update_rows(const int64_t *rows, int64_t n_rows, int64_t width,
                        double *block, double *g2, double *grad,
                        unsigned char *mark, double *work, double lr,
                        double eps, double rho1, double rho2, double radius)
{
    int penalized = rho1 != 0.0 || rho2 != 0.0;
    double rho2x2 = 2.0 * rho2;
    const v2d zero = {0.0, 0.0}, one = {1.0, 1.0}, minus_one = {-1.0, -1.0};
    for (int64_t i = 0; i < n_rows; i++) {
        int64_t row = rows[i], j = 0;
        double *x = block + row * width, *g = grad + row * width;
        double *s = g2 + row * width;
        double sum = 0.0;
        for (; j + 2 <= width; j += 2) {
            v2d xv = load2(x + j), gv = load2(g + j), sv = load2(s + j);
            if (penalized) {
                /* x > 0 ? 1 : x < 0 ? -1 : x, lane by lane */
                v2i pos = xv > zero, neg = xv < zero;
                v2d sign = (v2d)((pos & (v2i)one) | (neg & (v2i)minus_one) |
                                 (~(pos | neg) & (v2i)xv));
                gv -= rho1 * sign + rho2x2 * xv;
            }
            sv += gv * gv;
            xv += lr * gv / (sqrt2(sv) + eps);
            store2(x + j, xv);
            store2(s + j, sv);
            store2(g + j, zero);
            v2d sq = xv * xv;
            if (width < 8) {
                sum += sq[0];
                sum += sq[1];
            } else {
                store2(work + j, sq);
            }
        }
        if (j < width) {
            if (penalized) {
                double sign = x[j] > 0 ? 1.0 : x[j] < 0 ? -1.0 : x[j];
                g[j] -= rho1 * sign + rho2x2 * x[j];
            }
            s[j] += g[j] * g[j];
            x[j] += lr * g[j] / (sqrt(s[j]) + eps);
            g[j] = 0.0;
            if (width < 8)
                sum += x[j] * x[j];
            else
                work[j] = x[j] * x[j];
        }
        double norm = sqrt(width < 8 ? sum : pairwise_sum(work, width));
        if (norm > radius) {
            double f = radius / norm;
            for (j = 0; j < width; j++)
                x[j] *= f;
        }
        mark[row] = 0;
    }
}

/* One observation as the epochs read it */
struct record {
    int32_t head, tail, rel, label;
};

/* The argument record of every export: one fit's parameters, AdaGrad
   state, observations and settings; cap < 0 is no sparsity cap.  The
   edge columns heads, tails and rels are what mrnet_scores and
   mrnet_rank_counts read, the records what the epochs read. */
struct fit {
    int kind;
    int64_t n_ent, n_rel, d, rd;
    double *ent, *rel, *g2_ent, *g2_rel;
    const int64_t *heads, *tails, *rels;
    const struct record *records;
    int64_t n_obs, batch_size;
    double lr, eps, rho1, rho2, radius;
    int64_t cap;
};

/* edge_score of the edge (h, t, r) at the parameters of f */
INLINE double fit_score(int kind, const struct fit *f, int64_t h, int64_t t,
                        int64_t r)
{
    return edge_score(kind, f->d, f->ent + h * f->d, f->ent + t * f->d,
                      f->rel + r * f->rd);
}

/* offsetof(struct fit, name), or sizeof(struct fit) for name "", or -1
   if the record has no such field: _kernel.py checks its mirror by it. */
int64_t mrnet_fit_layout(const char *name)
{
#define FIELD(x) !strcmp(name, #x) ? (int64_t)offsetof(struct fit, x) :
    return FIELD(kind) FIELD(n_ent) FIELD(n_rel) FIELD(d) FIELD(rd)
        FIELD(ent) FIELD(rel) FIELD(g2_ent) FIELD(g2_rel) FIELD(heads)
        FIELD(tails) FIELD(rels) FIELD(records) FIELD(n_obs) FIELD(batch_size)
        FIELD(lr) FIELD(eps) FIELD(rho1) FIELD(rho2) FIELD(radius) FIELD(cap)
        *name ? -1 : (int64_t)sizeof(struct fit);
#undef FIELD
}

/* Work space of the epochs: gradient rows, their marks and lists, the
   tail-gradient terms of a batch (d per observation) and one parameter
   row. */
struct work {
    double *grad_e, *grad_r, *tail_terms, *row;
    unsigned char *mark_e, *mark_r;
    int64_t *rows_e, *rows_r;
};

/* how many steps ahead the batch loop prefetches an observation */
enum { PREFETCH = 16 };

/* One epoch over the observations in the order ``perm``, in batches of
   ``batch_size``; updates ent, rel, g2_ent and g2_rel in place. */
static void epoch(const struct fit *f, const struct work *w,
                  const int64_t *perm)
{
    int kind = f->kind;
    int64_t d = f->d, rd = f->rd, n_obs = f->n_obs;
    const double *ent = f->ent, *rel = f->rel;
    const struct record *records = f->records;
    for (int64_t start = 0; start < n_obs; start += f->batch_size) {
        int64_t nb = n_obs - start < f->batch_size ? n_obs - start
                                                   : f->batch_size;
        const int64_t *idx = perm + start;
        double scale = (double)n_obs / (double)nb;
        int64_t ne = 0, nr = 0;

        /* residuals, head rows, relation rows and the tail terms, in
           batch order */
        for (int64_t b = 0; b < nb; b++) {
            if (start + b + PREFETCH < n_obs)
                __builtin_prefetch(records + idx[b + PREFETCH]);
            const struct record *o = records + idx[b];
            int64_t hd = o->head, r = o->rel;
            const double *h = ent + hd * d, *t = ent + (int64_t)o->tail * d;
            const double *wr = rel + r * rd;
            double *gh = w->grad_e + hd * d, *gr = w->grad_r + r * rd;
            double *term = w->tail_terms + b * d;
            double c = ((double)o->label -
                        sigmoid(step_score(kind, d, h, t, wr))) * scale;
            touch(hd, w->mark_e, w->rows_e, &ne);
            touch(r, w->mark_r, w->rows_r, &nr);
            for (int64_t j = 0; j < d; j++) {
                if (kind == BILINEAR) {
                    gh[j] += c * (wr[j] * t[j]);
                    gr[j] += c * (h[j] * t[j]);
                    term[j] = c * (wr[j] * h[j]);
                } else {
                    double v = h[j] + wr[j] - t[j];
                    double g = kind == DISTANCE ? -2.0 * v
                                                : 2.0 * wr[d + j] * v;
                    gh[j] += c * g;
                    gr[j] += c * g;
                    term[j] = c * (kind == DISTANCE ? 2.0 * v : -g);
                    if (kind == COMBINED)
                        gr[d + j] += c * (v * v);
                }
            }
            if (kind == DISTANCE)
                gr[d] += c * 1.0;
        }
        /* tail rows, in batch order */
        for (int64_t b = 0; b < nb; b++) {
            int64_t tl = records[idx[b]].tail;
            double *gt = w->grad_e + tl * d;
            const double *term = w->tail_terms + b * d;
            touch(tl, w->mark_e, w->rows_e, &ne);
            for (int64_t j = 0; j < d; j++)
                gt[j] += term[j];
        }
        update_rows(w->rows_e, ne, d, f->ent, f->g2_ent, w->grad_e,
                    w->mark_e, w->row, f->lr, f->eps, f->rho1, f->rho2,
                    f->radius);
        update_rows(w->rows_r, nr, rd, f->rel, f->g2_rel, w->grad_r,
                    w->mark_r, w->row, f->lr, f->eps, f->rho1, f->rho2,
                    f->radius);
    }
}

/* The k-th smallest (from 0) of a[0], ..., a[n - 1], none of them NaN;
   reorders a. */
static double kth_smallest(double *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        double pivot = a[lo + (hi - lo) / 2];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot)
                i++;
            while (a[j] > pivot)
                j--;
            if (i <= j) {
                double tmp = a[i];
                a[i++] = a[j];
                a[j--] = tmp;
            }
        }
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            return a[k]; /* between the two parts: equal to the pivot */
    }
    return a[k];
}

/* estimation.project_l0 in place: of the values of ent then rel, keep
   the first f->cap in the order of (-|x|, position), as numpy's stable
   argsort of -|x| ranks them (NaN last), and set the others to 0.0.
   work holds one value per parameter. */
static void cap_params(const struct fit *f, double *work)
{
    int64_t cap = f->cap;
    double *blocks[2] = {f->ent, f->rel};
    int64_t sizes[2] = {f->n_ent * f->d, f->n_rel * f->rd};
    int64_t m = 0;
    if (cap >= sizes[0] + sizes[1])
        return;
    for (int b = 0; b < 2; b++)
        for (int64_t i = 0; i < sizes[b]; i++)
            if (!isnan(blocks[b][i]))
                work[m++] = fabs(blocks[b][i]);
    /* keep every |x| above t, the first ties equal to t, the first NaNs */
    double t = INFINITY;
    int64_t ties = 0, nans = 0;
    if (cap > m) {
        t = -1.0;
        nans = cap - m;
    } else if (cap > 0) {
        t = kth_smallest(work, m, m - cap);
        ties = cap;
        for (int64_t i = 0; i < m; i++)
            ties -= work[i] > t;
    }
    for (int b = 0; b < 2; b++)
        for (int64_t i = 0; i < sizes[b]; i++) {
            double a = fabs(blocks[b][i]);
            int keep = isnan(a) ? nans-- > 0 : a > t || (a == t && ties-- > 0);
            if (!keep)
                blocks[b][i] = 0.0;
        }
}

/* np.count_nonzero of the parameters */
static int64_t count_nonzero(const struct fit *f)
{
    int64_t count = 0;
    for (int64_t i = 0; i < f->n_ent * f->d; i++)
        count += f->ent[i] != 0.0;
    for (int64_t i = 0; i < f->n_rel * f->rd; i++)
        count += f->rel[i] != 0.0;
    return count;
}

/* n zeroed items of size bytes; never a NULL for n == 0 */
static void *zeroed(int64_t n, size_t size)
{
    return calloc((size_t)(n > 0 ? n : 1), size);
}

/* numpy's bitgen_t, the C interface of a numpy BitGenerator, which
   _kernel.py passes as rng.bit_generator.ctypes.bit_generator */
struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
};

/* numpy's random_interval: a draw from 0, ..., max by masked rejection,
   from next_uint32 when max fits 32 bits, else from next_uint64 */
static uint64_t interval(struct bitgen *rng, uint64_t max)
{
    uint64_t mask = max, value;
    if (max == 0)
        return 0;
    for (int shift = 1; shift <= 32; shift *= 2)
        mask |= mask >> shift;
    if (max <= 0xffffffffu)
        while ((value = (rng->next_uint32(rng->state) & mask)) > max)
            ;
    else
        while ((value = (rng->next_uint64(rng->state) & mask)) > max)
            ;
    return value;
}

/* order = rng.permutation(n): the same draws, and the generator left in
   the same state, as numpy's shuffle of 0, ..., n - 1 */
static void draw_order(struct bitgen *rng, int64_t *order, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)interval(rng, (uint64_t)i), tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
    }
}

/* n_epochs epochs of the fit f over its observations, each in an order
   drawn from rng just before it, as rng.permutation(f->n_obs) would draw
   it.  After each, it imposes the sparsity cap (none when f->cap < 0)
   and writes the nonzero count to nnz[e].  The caller holds rng's lock.
   Returns 0, or -1 if the work space cannot be allocated. */
int mrnet_epochs(const struct fit *f, struct bitgen *rng, int64_t n_epochs,
                 int64_t *nnz)
{
    int64_t n_obs = f->n_obs, d = f->d, rd = f->rd;
    int64_t nb_max = f->batch_size < n_obs ? f->batch_size : n_obs;
    struct work w = {zeroed(f->n_ent * d, sizeof(double)),
                     zeroed(f->n_rel * rd, sizeof(double)),
                     zeroed(nb_max * d, sizeof(double)),
                     zeroed(d > rd ? d : rd, sizeof(double)),
                     zeroed(f->n_ent, 1), zeroed(f->n_rel, 1),
                     zeroed(2 * nb_max, sizeof(int64_t)),
                     zeroed(nb_max, sizeof(int64_t))};
    double *flat = zeroed(f->n_ent * d + f->n_rel * rd, sizeof(double));
    int64_t *order = zeroed(n_obs, sizeof(int64_t));
    int status = -1;
    if (w.grad_e && w.grad_r && w.tail_terms && w.row && w.mark_e &&
        w.mark_r && w.rows_e && w.rows_r && flat && order) {
        for (int64_t e = 0; e < n_epochs; e++) {
            draw_order(rng, order, n_obs);
            epoch(f, &w, order);
            if (f->cap >= 0)
                cap_params(f, flat);
            nnz[e] = count_nonzero(f);
        }
        status = 0;
    }
    free(w.grad_e);
    free(w.grad_r);
    free(w.tail_terms);
    free(w.row);
    free(w.mark_e);
    free(w.mark_r);
    free(w.rows_e);
    free(w.rows_r);
    free(flat);
    free(order);
    return status;
}

/* Calls fn with f's kind as a constant: an always-inlined fn then gets
   one copy of its loops per kind, with no kind test per latent entry. */
#define BY_KIND(fn, f, ...)                                               \
    (f->kind == DISTANCE   ? fn(DISTANCE, f, __VA_ARGS__)                 \
     : f->kind == BILINEAR ? fn(BILINEAR, f, __VA_ARGS__)                 \
                           : fn(COMBINED, f, __VA_ARGS__))

INLINE void score_edges(int kind, const struct fit *f, int64_t n_ent,
                        int64_t n_rel, int64_t start, int64_t n, double *out)
{
    if (f->heads) {
        for (int64_t i = 0; i < n; i++)
            out[i] = fit_score(kind, f, f->heads[i], f->tails[i], f->rels[i]);
        return;
    }
    int64_t h = start / (n_ent * n_rel), t = start / n_rel % n_ent;
    int64_t r = start % n_rel;
    for (int64_t i = 0; i < n; i++) {
        out[i] = fit_score(kind, f, h, t, r);
        if (++r == n_rel) {
            r = 0;
            if (++t == n_ent) {
                t = 0;
                h++;
            }
        }
    }
}

/* Scores of n edges at the parameters of f, written to out: the edges
   f->heads[i], f->tails[i], f->rels[i] when f->heads is not NULL, else
   the slots start, ..., start + n - 1 of the n_ent x n_ent x n_rel
   universe in linear order (h*n_ent + t)*n_rel + r. */
void mrnet_scores(const struct fit *f, int64_t n_ent, int64_t n_rel,
                  int64_t start, int64_t n, double *out)
{
    BY_KIND(score_edges, f, n_ent, n_rel, start, n, out);
}

INLINE void count_rows(int kind, const struct fit *f, int slot,
                       int64_t width, const unsigned char *mask,
                       int64_t *above, int64_t *tied)
{
    for (int64_t i = 0; i < f->n_obs; i++) {
        int64_t idx[3] = {f->heads[i], f->tails[i], f->rels[i]};
        const unsigned char *m = mask + i * width;
        double target = fit_score(kind, f, idx[0], idx[1], idx[2]);
        int64_t a = 0, t = 0;
        for (int64_t c = 0; c < width; c++) {
            if (m[c])
                continue;
            idx[slot] = c;
            double s = fit_score(kind, f, idx[0], idx[1], idx[2]);
            a += s > target;
            t += s == target;
        }
        above[i] = a;
        tied[i] = t;
    }
}

/* Filtered rank counts of the n_obs test edges of f in one slot (0 head,
   1 tail, 2 relation).  Row i's candidates replace the slot's index of
   edge (heads[i], tails[i], rels[i]) with c = 0, ..., width - 1; of
   those with mask[i*width + c] == 0, above[i] counts the ones scoring
   above the edge itself and tied[i] the ones scoring equal to it. */
void mrnet_rank_counts(const struct fit *f, int slot, int64_t width,
                       const unsigned char *mask, int64_t *above,
                       int64_t *tied)
{
    BY_KIND(count_rows, f, slot, width, mask, above, tied);
}
