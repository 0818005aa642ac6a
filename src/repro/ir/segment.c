/*
 * Fixed part of every translation unit emitted by repro.ir.cc.
 *
 * The generator splices its per-rule-set code (column accessors, the
 * per-row guard/predicate/action functions and the read radii) at the
 * ROWS marker below; everything else is this file verbatim.  One
 * exported call, repro_segment, runs a stretch of fused steps of the
 * central, synchronous or distributed-random daemon:
 *
 *   daemon draw -> actions (staged, then committed) -> guards and the
 *   watched predicate re-evaluated on the read-radius ball of the moved
 *   processes -> round accounting -> predicate bookkeeping
 *
 * and returns at the step budget, a terminal configuration, the first
 * configuration where the watched predicate holds everywhere (when asked
 * to), an exclusion violation, or an out-of-range gather.  Every value is
 * carried as an int64 normalized to its numpy dtype (bools are 0/1), and
 * the arithmetic reproduces numpy's: wraparound at the dtype's width,
 * floor division and modulo, x // 0 == x % 0 == 0.
 *
 * Daemon draws come from a port of CPython's MT19937: randrange is
 * _randbelow_with_getrandbits, random() is genrand_res53.  The state
 * words are the Random's own (getstate()/setstate() round trip them).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef struct seg {
    /* configuration and topology, read by the generated rows */
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    void *const *cols;
    const void *const *params;
    const int64_t *k;
    int64_t err;
    /* daemon: 0 synchronous, 1 central, 2 distributed-random */
    int64_t daemon;
    double p;
    uint32_t *mt;
    int64_t mt_pos;
    int64_t draws;
    /* segment control */
    int64_t budget;
    int64_t check_exclusion;
    int64_t watch;
    int64_t stop_on_hold;
    /* round counter (pending == NULL: none) */
    uint8_t *pending;
    int64_t rounds_completed;
    int64_t has_pending;
    /* accounting, added into */
    int64_t *moves_per_process;
    int64_t *moves_per_rule;
    int64_t steps;
    int64_t moves;
    int64_t observed;
    int64_t violations;
    int64_t *last_chosen;
    int8_t *last_kinds;
    int64_t last_count;
    /* stride-sampled phase timing (tel_mask < 0: off) */
    int64_t tel_mask;
    int64_t tel_base;
    double *tel_times;
    int64_t *tel_counts;
} seg_t;

enum { SEG_CONTINUE = 0, SEG_EVENT = 1, SEG_EXCLUSION = 2, SEG_ERROR = 3,
       SEG_NOMEM = 4 };
enum { D_SYNCHRONOUS = 0, D_CENTRAL = 1, D_DISTRIBUTED = 2 };
/* repro.telemetry.phases slot numbers */
enum { PH_GUARD = 0, PH_DAEMON = 1, PH_APPLY = 2, PH_ROUNDS = 3, PH_PROBE = 4 };

/* ------------------------------------------------------------------ */
/* numpy integer semantics                                            */
/* ------------------------------------------------------------------ */
static inline int64_t w_add(int64_t a, int64_t b)
{ return (int64_t)((uint64_t)a + (uint64_t)b); }
static inline int64_t w_sub(int64_t a, int64_t b)
{ return (int64_t)((uint64_t)a - (uint64_t)b); }
static inline int64_t w_mul(int64_t a, int64_t b)
{ return (int64_t)((uint64_t)a * (uint64_t)b); }
static inline int64_t w_neg(int64_t a)
{ return (int64_t)(0 - (uint64_t)a); }
static inline int64_t w_abs(int64_t a) { return a < 0 ? w_neg(a) : a; }
static inline int64_t w_sign(int64_t a) { return (a > 0) - (a < 0); }
static inline int64_t w_min(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t w_max(int64_t a, int64_t b) { return a > b ? a : b; }

static inline int64_t w_floordiv(int64_t a, int64_t b)
{
    if (b == 0) return 0;
    if (b == -1) return w_neg(a);
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

static inline int64_t w_mod(int64_t a, int64_t b)
{
    /* the congruence windows' common case, |a| < b, without a divide */
    if (b > 0) {
        if ((uint64_t)a < (uint64_t)b) return a;
        if (a < 0 && a > -b) return a + b;
    }
    if (b == 0 || b == -1) return 0;
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

/* ------------------------------------------------------------------ */
/* CPython's Mersenne Twister                                         */
/* ------------------------------------------------------------------ */
#define MT_N 624
#define MT_M 397

static void mt_twist(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
}

static inline uint32_t mt_word(uint32_t *mt, int64_t *pos)
{
    if (*pos >= MT_N) {
        mt_twist(mt);
        *pos = 0;
    }
    uint32_t y = mt[(*pos)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow_with_getrandbits(n), 1 <= n < 2**32. */
static inline int64_t mt_randbelow(uint32_t *mt, int64_t *pos, int64_t n)
{
    int bits = 64 - __builtin_clzll((uint64_t)n);
    int shift = 32 - bits;
    int64_t r;
    do {
        r = (int64_t)(mt_word(mt, pos) >> shift);
    } while (r >= n);
    return r;
}

/* Random.random(): genrand_res53. */
static inline double mt_random(uint32_t *mt, int64_t *pos)
{
    uint32_t a = mt_word(mt, pos) >> 5, b = mt_word(mt, pos) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

int64_t repro_mt_randbelow(uint32_t *mt, int64_t *pos, int64_t n)
{ return mt_randbelow(mt, pos, n); }

double repro_mt_random(uint32_t *mt, int64_t *pos)
{ return mt_random(mt, pos); }

/* @@ROWS@@ */

int64_t repro_row_guards(seg_t *S, int64_t u, int64_t watch, int64_t *pred)
{
    int p = 0;
    uint64_t bits = row_guards(S, u, watch, &p);
    *pred = p;
    return (int64_t)bits;
}

void repro_row_action(seg_t *S, int64_t u, int64_t rule, int64_t *out)
{
    load_row(S, u, out);
    row_action(S, u, rule, out);
}

/* ------------------------------------------------------------------ */
/* The segment driver                                                 */
/* ------------------------------------------------------------------ */
static inline double now_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Index of the j-th (0-based) set bit of the enabled bitset. */
static int64_t nth_enabled(const uint64_t *words, int64_t nwords, int64_t j)
{
    for (int64_t w = 0; w < nwords; w++) {
        int64_t c = __builtin_popcountll(words[w]);
        if (j < c) {
            uint64_t x = words[w];
            while (j-- > 0) x &= x - 1;
            return w * 64 + __builtin_ctzll(x);
        }
        j -= c;
    }
    return -1;
}

typedef struct {
    uint64_t *bits;      /* per process: enabled-rule bitmask */
    uint64_t *words;     /* enabled bitset */
    uint8_t *falsy;      /* per process: watched predicate is false */
    int64_t *stamp;      /* ball membership epochs */
    int64_t *ball;
    uint64_t *prior;     /* per ball slot: the bits before the refresh */
    int64_t *chosen;
    int64_t *stage;      /* STAGE staged registers per chosen process */
    int64_t nwords, en_count, multi, false_count, epoch;
} work_t;

static void work_free(work_t *W)
{
    free(W->bits); free(W->words); free(W->falsy); free(W->stamp);
    free(W->ball); free(W->prior); free(W->chosen); free(W->stage);
}

static int work_alloc(work_t *W, int64_t n)
{
    memset(W, 0, sizeof *W);
    W->nwords = (n + 63) / 64;
    W->bits = calloc((size_t)n + 1, sizeof *W->bits);
    W->words = calloc((size_t)W->nwords + 1, sizeof *W->words);
    W->falsy = calloc((size_t)n + 1, 1);
    W->stamp = calloc((size_t)n + 1, sizeof *W->stamp);
    W->ball = malloc(((size_t)n + 1) * sizeof *W->ball);
    W->prior = malloc(((size_t)n + 1) * sizeof *W->prior);
    W->chosen = malloc(((size_t)n + 1) * sizeof *W->chosen);
    W->stage = malloc(((size_t)n + 1) * STAGE * sizeof *W->stage);
    if (!W->bits || !W->words || !W->falsy || !W->stamp
        || !W->ball || !W->prior || !W->chosen || !W->stage) {
        work_free(W);
        return 0;
    }
    return 1;
}

/* Re-evaluate process w; keep the bitset and the counters in step. */
static inline void refresh(seg_t *S, work_t *W, int64_t w, int64_t watch)
{
    int holds = 1;
    uint64_t old = W->bits[w];
    uint64_t now = row_guards(S, w, watch, &holds);
    if (now != old) {
        W->bits[w] = now;
        if ((old != 0) != (now != 0)) {
            W->words[w >> 6] ^= (uint64_t)1 << (w & 63);
            W->en_count += now ? 1 : -1;
        }
        W->multi += (int64_t)((now & (now - 1)) != 0)
                  - (int64_t)((old & (old - 1)) != 0);
    }
    if (watch >= 0) {
        uint8_t f = (uint8_t)!holds;
        W->false_count += (int64_t)f - (int64_t)W->falsy[w];
        W->falsy[w] = f;
    }
}

/* The processes whose guards or watched predicate a move of ``chosen``
 * can change: every process within ``radius`` hops of one of them
 * (everybody once a quarter of the processes moved: the ball is then
 * most of the graph anyway).  Rule sets whose radius is unbounded (a
 * pointer gather in a guard or predicate) never reach this driver. */
static int64_t wake_ball(const seg_t *S, work_t *W, int64_t count,
                         int64_t radius)
{
    int64_t n = S->n, nb = 0;
    if (radius > 0 && 4 * count >= n) {
        for (int64_t w = 0; w < n; w++) W->ball[w] = w;
        return n;
    }
    int64_t epoch = ++W->epoch;
    for (int64_t i = 0; i < count; i++) {
        int64_t u = W->chosen[i];
        if (W->stamp[u] != epoch) {
            W->stamp[u] = epoch;
            W->ball[nb++] = u;
        }
    }
    int64_t lo = 0;
    for (int64_t r = 0; r < radius; r++) {
        int64_t hi = nb;
        for (int64_t i = lo; i < hi; i++) {
            int64_t x = W->ball[i];
            for (int64_t e = S->indptr[x]; e < S->indptr[x + 1]; e++) {
                int64_t v = S->indices[e];
                if (W->stamp[v] != epoch) {
                    W->stamp[v] = epoch;
                    W->ball[nb++] = v;
                }
            }
        }
        lo = hi;
    }
    return nb;
}

int64_t repro_segment(seg_t *S)
{
    const int64_t n = S->n, watch = S->watch;
    int64_t radius = RADIUS_GUARDS;
    if (watch >= 0 && PRED_RADIUS[watch] > radius) radius = PRED_RADIUS[watch];
    work_t W;
    if (!work_alloc(&W, n)) return SEG_NOMEM;
    for (int64_t w = 0; w < n; w++) refresh(S, &W, w, watch);
    int64_t code = SEG_CONTINUE;
    if (S->err) {
        code = SEG_ERROR;
        goto done;
    }
    int64_t pending_count = 0;
    if (S->pending)
        for (int64_t w = 0; w < n; w++) pending_count += S->pending[w];
    const int tel = S->tel_mask >= 0;

    while (S->steps < S->budget && W.en_count > 0) {
        const int sampling = tel && ((S->tel_base + S->steps) & S->tel_mask) == 0;
        double t_mark = sampling ? now_s() : 0.0, t_now;

        /* daemon: the chosen processes, ascending */
        int64_t count = 0;
        if (S->daemon == D_CENTRAL) {
            int64_t j = mt_randbelow(S->mt, &S->mt_pos, W.en_count);
            S->draws = 1;
            W.chosen[count++] = nth_enabled(W.words, W.nwords, j);
        } else {
            const int coins = S->daemon == D_DISTRIBUTED;
            for (int64_t wi = 0; wi < W.nwords; wi++) {
                uint64_t x = W.words[wi];
                while (x) {
                    int64_t u = wi * 64 + __builtin_ctzll(x);
                    x &= x - 1;
                    if (!coins || mt_random(S->mt, &S->mt_pos) < S->p)
                        W.chosen[count++] = u;
                }
            }
            if (coins) {
                S->draws = 1;
                if (count == 0) {
                    int64_t j = mt_randbelow(S->mt, &S->mt_pos, W.en_count);
                    W.chosen[count++] = nth_enabled(W.words, W.nwords, j);
                }
            }
        }
        if (sampling) {
            t_now = now_s();
            S->tel_times[PH_DAEMON] += t_now - t_mark;
            S->tel_counts[PH_DAEMON] += 1;
            t_mark = t_now;
        }

        /* actions: every chosen process reads the pre-step state */
        for (int64_t i = 0; i < count; i++) {
            int64_t u = W.chosen[i];
            int64_t rule = __builtin_ctzll(W.bits[u]);
            S->last_chosen[i] = u;
            S->last_kinds[i] = (int8_t)rule;
            load_row(S, u, W.stage + i * STAGE);
            row_action(S, u, rule, W.stage + i * STAGE);
        }
        S->last_count = count;
        if (S->err) {
            code = SEG_ERROR;
            break;
        }
        for (int64_t i = 0; i < count; i++) {
            int64_t u = W.chosen[i];
            store_row(S, u, W.stage + i * STAGE);
            S->moves_per_process[u] += 1;
            S->moves_per_rule[S->last_kinds[i]] += 1;
        }
        S->steps += 1;
        S->moves += count;
        if (sampling) {
            t_now = now_s();
            S->tel_times[PH_APPLY] += t_now - t_mark;
            S->tel_counts[PH_APPLY] += 1;
            t_mark = t_now;
        }

        /* guards and the watched predicate on the wake ball */
        int64_t nb = wake_ball(S, &W, count, radius);
        for (int64_t i = 0; i < nb; i++) {
            W.prior[i] = W.bits[W.ball[i]];
            refresh(S, &W, W.ball[i], watch);
        }
        if (sampling) {
            t_now = now_s();
            S->tel_times[PH_GUARD] += t_now - t_mark;
            S->tel_counts[PH_GUARD] += 1;
            t_mark = t_now;
        }
        if (S->err) {
            code = SEG_ERROR;
            break;
        }
        if (S->check_exclusion && W.multi > 0) {
            code = SEG_EXCLUSION;
            break;
        }

        /* rounds (ArrayRoundCounter.observe_step): the movers, and the
         * ball processes neutralized (enabled before, disabled now) */
        uint8_t *pending = S->has_pending ? S->pending : NULL;
        if (pending) {
            int64_t resolved = 0;
            for (int64_t i = 0; i < nb; i++) {
                int64_t w = W.ball[i];
                if (pending[w] && W.prior[i] && !W.bits[w]) {
                    pending[w] = 0;
                    resolved++;
                }
            }
            for (int64_t i = 0; i < count; i++) {
                int64_t u = W.chosen[i];
                if (pending[u]) {
                    pending[u] = 0;
                    resolved++;
                }
            }
            pending_count -= resolved;
            if (pending_count == 0) {
                S->rounds_completed += 1;
                for (int64_t w = 0; w < n; w++) pending[w] = W.bits[w] != 0;
                pending_count = W.en_count;
                S->has_pending = W.en_count > 0;
            }
            if (sampling) {
                t_now = now_s();
                S->tel_times[PH_ROUNDS] += t_now - t_mark;
                S->tel_counts[PH_ROUNDS] += 1;
                t_mark = t_now;
            }
        }

        /* the watched predicate */
        if (watch >= 0) {
            int holds = W.false_count == 0;
            if (holds && S->stop_on_hold) {
                code = SEG_EVENT;
                break;
            }
            S->observed += 1;
            S->violations += !holds;
            if (sampling) {
                S->tel_times[PH_PROBE] += now_s() - t_mark;
                S->tel_counts[PH_PROBE] += 1;
            }
        }
    }
done:
    work_free(&W);
    return code;
}
