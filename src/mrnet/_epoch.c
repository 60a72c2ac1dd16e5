/* Compiled inner loops of mrnet, loaded by _kernel.py.

   mrnet_epoch runs one epoch of projected AdaGrad ascent on the
   penalized Bernoulli log-likelihood; mrnet_log_likelihood evaluates
   the log-likelihood term of the objective.  Both follow the numpy
   reference in estimation.py operation for operation:

   - a step's gradient is taken at the parameters before the step, and
     is accumulated per row in batch order, heads before tails, as
     np.add.at does;
   - the elastic-net term, the AdaGrad update and the ball projection
     of each touched row use the same expressions in the same order;
   - row norms and the log-likelihood total use numpy's pairwise
     summation.

   mrnet_scores writes the scores of a loss-scan chunk and
   mrnet_rank_counts counts, per test edge, the unfiltered candidates
   scoring above and tied with it, for mrnet.evaluation.

   Every score sums the latent axis in order, as models.scores'
   three-operand einsum does, so scores agree with numpy bit for bit.
   What remains different is libm's exp, which numpy replaces with its
   own SIMD version, so training trajectories agree to rounding, not
   bit for bit.  The build passes -ffp-contract=off so the compiler
   does not fuse a*b+c into an FMA. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

static void touch(int64_t row, unsigned char *mark, int64_t *rows,
                  int64_t *n_rows)
{
    if (!mark[row]) {
        mark[row] = 1;
        rows[(*n_rows)++] = row;
    }
}

/* Penalty, AdaGrad update and ball projection of the touched rows of
   one block; leaves the gradient rows zeroed and the marks cleared. */
static void update_rows(const int64_t *rows, int64_t n_rows, int64_t width,
                        double *block, double *g2, double *grad,
                        unsigned char *mark, double *work, double lr,
                        double eps, double rho1, double rho2, double radius)
{
    int penalized = rho1 != 0.0 || rho2 != 0.0;
    for (int64_t i = 0; i < n_rows; i++) {
        int64_t row = rows[i];
        double *x = block + row * width, *g = grad + row * width;
        double *s = g2 + row * width;
        for (int64_t j = 0; j < width; j++) {
            if (penalized) {
                double sign = x[j] > 0 ? 1.0 : x[j] < 0 ? -1.0 : x[j];
                g[j] -= rho1 * sign + 2.0 * rho2 * x[j];
            }
            s[j] += g[j] * g[j];
            x[j] += lr * g[j] / (sqrt(s[j]) + eps);
        }
        for (int64_t j = 0; j < width; j++)
            work[j] = x[j] * x[j];
        double norm = sqrt(pairwise_sum(work, width));
        if (norm > radius) {
            double f = radius / norm;
            for (int64_t j = 0; j < width; j++)
                x[j] *= f;
        }
        memset(g, 0, (size_t)width * sizeof(double));
        mark[row] = 0;
    }
}

/* One epoch over the observations in the order ``perm``, in batches of
   ``batch_size``; updates ent, rel, g2_ent and g2_rel in place.
   Returns 0, or -1 if the work space cannot be allocated. */
int mrnet_epoch(int kind, int64_t n_ent, int64_t n_rel, int64_t d,
                int64_t rd, double *ent, double *rel, double *g2_ent,
                double *g2_rel, const int64_t *heads, const int64_t *tails,
                const int64_t *rels, const int8_t *labels,
                const int64_t *perm, int64_t n_obs, int64_t batch_size,
                double lr, double eps, double rho1, double rho2,
                double radius)
{
    int64_t nb_max = batch_size < n_obs ? batch_size : n_obs;
    double *grad_e = calloc((size_t)(n_ent * d), sizeof(double));
    double *grad_r = calloc((size_t)(n_rel * rd), sizeof(double));
    unsigned char *mark_e = calloc((size_t)n_ent, 1);
    unsigned char *mark_r = calloc((size_t)n_rel, 1);
    int64_t *rows_e = malloc((size_t)(2 * nb_max) * sizeof(int64_t));
    int64_t *rows_r = malloc((size_t)nb_max * sizeof(int64_t));
    double *resid = malloc((size_t)nb_max * sizeof(double));
    double *work = malloc((size_t)(d > rd ? d : rd) * sizeof(double));
    int status = -1;
    if (!grad_e || !grad_r || !mark_e || !mark_r || !rows_e || !rows_r ||
        !resid || !work)
        goto done;

    for (int64_t start = 0; start < n_obs; start += batch_size) {
        int64_t nb = n_obs - start < batch_size ? n_obs - start : batch_size;
        const int64_t *idx = perm + start;
        double scale = (double)n_obs / (double)nb;
        int64_t ne = 0, nr = 0;

        /* residuals, head rows and relation rows, in batch order */
        for (int64_t b = 0; b < nb; b++) {
            int64_t o = idx[b], r = rels[o];
            const double *h = ent + heads[o] * d, *t = ent + tails[o] * d;
            const double *w = rel + r * rd;
            double *gh = grad_e + heads[o] * d, *gr = grad_r + r * rd;
            double c = ((double)labels[o] -
                        sigmoid(edge_score(kind, d, h, t, w))) * scale;
            resid[b] = c;
            touch(heads[o], mark_e, rows_e, &ne);
            touch(r, mark_r, rows_r, &nr);
            for (int64_t j = 0; j < d; j++) {
                if (kind == BILINEAR) {
                    gh[j] += c * (w[j] * t[j]);
                    gr[j] += c * (h[j] * t[j]);
                } else {
                    double v = h[j] + w[j] - t[j];
                    double g = kind == DISTANCE ? -2.0 * v
                                                : 2.0 * w[d + j] * v;
                    gh[j] += c * g;
                    gr[j] += c * g;
                    if (kind == COMBINED)
                        gr[d + j] += c * (v * v);
                }
            }
            if (kind == DISTANCE)
                gr[d] += c * 1.0;
        }
        /* tail rows, in batch order */
        for (int64_t b = 0; b < nb; b++) {
            int64_t o = idx[b];
            const double *h = ent + heads[o] * d, *t = ent + tails[o] * d;
            const double *w = rel + rels[o] * rd;
            double *gt = grad_e + tails[o] * d;
            double c = resid[b];
            touch(tails[o], mark_e, rows_e, &ne);
            for (int64_t j = 0; j < d; j++) {
                if (kind == BILINEAR) {
                    gt[j] += c * (w[j] * h[j]);
                } else {
                    double v = h[j] + w[j] - t[j];
                    gt[j] += c * (kind == DISTANCE ? 2.0 * v
                                                   : -(2.0 * w[d + j] * v));
                }
            }
        }
        update_rows(rows_e, ne, d, ent, g2_ent, grad_e, mark_e, work, lr, eps,
                    rho1, rho2, radius);
        update_rows(rows_r, nr, rd, rel, g2_rel, grad_r, mark_r, work, lr,
                    eps, rho1, rho2, radius);
    }
    status = 0;
done:
    free(grad_e);
    free(grad_r);
    free(mark_e);
    free(mark_r);
    free(rows_e);
    free(rows_r);
    free(resid);
    free(work);
    return status;
}

/* Bernoulli log-likelihood of the labels, written to *out: minus the
   sum of logaddexp(0, s) with s = -score for label 1 and s = score for
   label 0.  Returns 0, or -1 if the work space cannot be allocated. */
int mrnet_log_likelihood(int kind, int64_t d, int64_t rd, const double *ent,
                         const double *rel, const int64_t *heads,
                         const int64_t *tails, const int64_t *rels,
                         const int8_t *labels, int64_t n, double *out)
{
    double *terms = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (!terms)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        double phi = edge_score(kind, d, ent + heads[i] * d,
                                ent + tails[i] * d, rel + rels[i] * rd);
        double s = labels[i] == 1 ? -phi : phi;
        terms[i] = (s > 0 ? s : 0.0) + log1p(exp(-fabs(s)));
    }
    *out = -pairwise_sum(terms, n);
    free(terms);
    return 0;
}

/* Calls f with kind as a constant: an always-inlined f then gets one
   copy of its loops per kind, with no kind test per latent entry. */
#define INLINE static inline __attribute__((always_inline))
#define BY_KIND(f, ...)                                                   \
    (kind == DISTANCE   ? f(DISTANCE, __VA_ARGS__)                        \
     : kind == BILINEAR ? f(BILINEAR, __VA_ARGS__)                        \
                        : f(COMBINED, __VA_ARGS__))

INLINE void score_edges(int kind, int64_t d, int64_t rd, const double *ent,
                        const double *rel, const int64_t *heads,
                        const int64_t *tails, const int64_t *rels,
                        int64_t n_ent, int64_t n_rel, int64_t start,
                        int64_t n, double *out)
{
    if (heads) {
        for (int64_t i = 0; i < n; i++)
            out[i] = edge_score(kind, d, ent + heads[i] * d,
                                ent + tails[i] * d, rel + rels[i] * rd);
        return;
    }
    int64_t h = start / (n_ent * n_rel), t = start / n_rel % n_ent;
    int64_t r = start % n_rel;
    for (int64_t i = 0; i < n; i++) {
        out[i] = edge_score(kind, d, ent + h * d, ent + t * d, rel + r * rd);
        if (++r == n_rel) {
            r = 0;
            if (++t == n_ent) {
                t = 0;
                h++;
            }
        }
    }
}

/* Scores of n edges, written to out: the edges heads[i], tails[i],
   rels[i] when heads is not NULL, else the slots start, ...,
   start + n - 1 of the n_ent x n_ent x n_rel universe in linear order
   (h*n_ent + t)*n_rel + r. */
void mrnet_scores(int kind, int64_t d, int64_t rd, const double *ent,
                  const double *rel, const int64_t *heads,
                  const int64_t *tails, const int64_t *rels, int64_t n_ent,
                  int64_t n_rel, int64_t start, int64_t n, double *out)
{
    BY_KIND(score_edges, d, rd, ent, rel, heads, tails, rels, n_ent, n_rel,
            start, n, out);
}

INLINE void count_rows(int kind, int64_t d, int64_t rd, const double *ent,
                       const double *rel, int slot, const int64_t *heads,
                       const int64_t *tails, const int64_t *rels,
                       int64_t n_rows, int64_t width,
                       const unsigned char *mask, int64_t *above,
                       int64_t *tied)
{
    for (int64_t i = 0; i < n_rows; i++) {
        int64_t idx[3] = {heads[i], tails[i], rels[i]};
        const unsigned char *m = mask + i * width;
        double target = edge_score(kind, d, ent + idx[0] * d,
                                   ent + idx[1] * d, rel + idx[2] * rd);
        int64_t a = 0, t = 0;
        for (int64_t c = 0; c < width; c++) {
            if (m[c])
                continue;
            idx[slot] = c;
            double s = edge_score(kind, d, ent + idx[0] * d,
                                  ent + idx[1] * d, rel + idx[2] * rd);
            a += s > target;
            t += s == target;
        }
        above[i] = a;
        tied[i] = t;
    }
}

/* Filtered rank counts of n_rows test edges in one slot (0 head,
   1 tail, 2 relation).  Row i's candidates replace the slot's index of
   edge (heads[i], tails[i], rels[i]) with c = 0, ..., width - 1; of
   those with mask[i*width + c] == 0, above[i] counts the ones scoring
   above the edge itself and tied[i] the ones scoring equal to it. */
void mrnet_rank_counts(int kind, int64_t d, int64_t rd, const double *ent,
                       const double *rel, int slot, const int64_t *heads,
                       const int64_t *tails, const int64_t *rels,
                       int64_t n_rows, int64_t width,
                       const unsigned char *mask, int64_t *above,
                       int64_t *tied)
{
    BY_KIND(count_rows, d, rd, ent, rel, slot, heads, tails, rels, n_rows,
            width, mask, above, tied);
}
