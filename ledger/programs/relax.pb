// Relaxation for the 1-D Poisson problem -x'' = b with zero boundary
// values: a `for_enough` loop around an `either` of a Jacobi sweep
// (through a scratch array) and an in-place Gauss-Seidel sweep, both
// calling a scalar helper transform per grid point. The metric is the
// multigrid benchmarks' log10 residual-reduction ratio (§6.1.5), so
// tighter bins need more sweeps or the faster-converging sweep.

transform relax
accuracy_metric relaxacc
from B[n]
to X[n], Scratch[n]
{
    to (X x, Scratch t) from (B b) {
        for_enough {
            either {
                for (i in 1 .. len(x) - 1) {
                    t[i] = stencil(x[i - 1], x[i + 1], b[i]);
                }
                for (i in 1 .. len(x) - 1) {
                    x[i] = t[i];
                }
            } or {
                for (i in 1 .. len(x) - 1) {
                    x[i] = stencil(x[i - 1], x[i + 1], b[i]);
                }
            }
        }
    }
}

transform stencil
from L, R, F
to V
{
    to (V v) from (L l, R r, F f) {
        v = (l + r + f) / 2;
    }
}

transform relaxacc
from X[n], B[n]
to Accuracy
{
    to (Accuracy acc) from (X x, B b) {
        let before = 0;
        let after = 0;
        for (i in 1 .. len(x) - 1) {
            let r = b[i] - (2 * x[i] - x[i - 1] - x[i + 1]);
            before = before + b[i] * b[i];
            after = after + r * r;
        }
        acc = log(max(before, 0.000000000001) / max(after, 0.000000000000000000000001)) / (2 * log(10));
    }
}
