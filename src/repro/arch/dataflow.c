/* Program-order dataflow walk over (gates x points).
 *
 * The one production timing engine behind repro.arch.batched: every
 * design point of a batch shares the circuit, movement penalties and
 * CQLA configuration and differs only in its ancilla supply. Gates are
 * walked in program order; an inner loop runs over points, whose state
 * rows are stored points-minor ((qubits, points), (bits, points)).
 *
 * Per gate and point the arithmetic is the reference loop's, in its
 * floating-point order: operand max chain, condition-bit max, CQLA port
 * bookings (first minimum of the point's earliest-free row, like the
 * (free, index) min-heap), movement add, supply max, then "+ latency"
 * and "+ qec" as two separate additions. Build with -ffp-contract=off
 * and without -ffast-math so no operation is fused or reordered.
 *
 * A supply kind is a (points, cols) pair of rate and consumed rows plus
 * a per-gate counter offset `seq`: a steady pool has cols == 1 and seq
 * the global draw count; dedicated per-qubit generators have
 * cols == num_qubits, are indexed by the gate's home qubit, and seq is
 * the home generator's draw count. The ancillae a gate takes exist at
 * (consumed + seq) / rate; a zero rate never delivers. A NULL rate
 * leaves the kind unconstrained.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static inline double kind_ready(const double *rate, const double *consumed,
                                int64_t cols, int64_t p, int64_t home,
                                double seq)
{
    int64_t k = p * cols + (cols > 1 ? home : 0);
    if (rate[k] == 0.0)
        return INFINITY;
    return (consumed[k] + seq) / rate[k];
}

int dataflow_walk(
    int64_t n, int64_t points, int64_t nq, int64_t nb,
    const int32_t *q0, const int32_t *q1, const int32_t *q2,
    const int32_t *cond, const int32_t *result, const double *latency,
    const int8_t *move_kind, const int8_t *pi8,
    double move_1q, double move_2q, double qec,
    const int32_t *trips, int64_t ports, double t_teleport,
    const double *zero_rate, const double *zero_consumed,
    const double *zero_seq, int64_t zero_cols,
    const double *pi8_rate, const double *pi8_consumed,
    const double *pi8_seq, int64_t pi8_cols,
    double *makespan)
{
    double *qubit_free = calloc((size_t)(nq * points), sizeof(double));
    double *bits = calloc((size_t)(nb * points + 1), sizeof(double));
    double *port_free =
        calloc((size_t)(trips ? ports * points : 1), sizeof(double));
    if (!qubit_free || !bits || !port_free) {
        free(qubit_free);
        free(bits);
        free(port_free);
        return -1;
    }
    const double move_table[3] = {0.0, move_1q, move_2q};
    for (int64_t i = 0; i < n; i++) {
        const int64_t a = q0[i], b = q1[i], c = q2[i];
        const int64_t cd = cond[i], r = result[i];
        double *qa = qubit_free + a * points;
        double *qb = b >= 0 ? qubit_free + b * points : NULL;
        double *qc = c >= 0 ? qubit_free + c * points : NULL;
        const double *bc = cd >= 0 ? bits + cd * points : NULL;
        double *br = r >= 0 ? bits + r * points : NULL;
        const int32_t k_trips = trips ? trips[i] : 0;
        const double move = move_table[move_kind[i]];
        const int take_pi8 = pi8_rate && pi8[i];
        const double lat = latency[i];
        for (int64_t p = 0; p < points; p++) {
            double t = qa[p], v;
            if (qb) {
                v = qb[p];
                if (v > t)
                    t = v;
                if (qc) {
                    v = qc[p];
                    if (v > t)
                        t = v;
                }
            }
            if (bc) {
                v = bc[p];
                if (v > t)
                    t = v;
            }
            for (int32_t k = 0; k < k_trips; k++) {
                double *row = port_free + p * ports;
                int64_t j = 0;
                double free_at = row[0];
                for (int64_t s = 1; s < ports; s++) {
                    if (row[s] < free_at) {
                        free_at = row[s];
                        j = s;
                    }
                }
                if (free_at > t)
                    t = free_at;
                t += t_teleport;
                row[j] = t;
            }
            if (move != 0.0)
                t += move;
            if (zero_rate) {
                v = kind_ready(zero_rate, zero_consumed, zero_cols, p, a,
                               zero_seq[i]);
                if (v > t)
                    t = v;
            }
            if (take_pi8) {
                v = kind_ready(pi8_rate, pi8_consumed, pi8_cols, p, a,
                               pi8_seq[i]);
                if (v > t)
                    t = v;
            }
            t += lat;
            t += qec;
            qa[p] = t;
            if (qb) {
                qb[p] = t;
                if (qc)
                    qc[p] = t;
            }
            if (br)
                br[p] = t;
        }
    }
    for (int64_t p = 0; p < points; p++) {
        double m = qubit_free[p];
        for (int64_t q = 1; q < nq; q++) {
            if (qubit_free[q * points + p] > m)
                m = qubit_free[q * points + p];
        }
        makespan[p] = m;
    }
    free(qubit_free);
    free(bits);
    free(port_free);
    return 0;
}
