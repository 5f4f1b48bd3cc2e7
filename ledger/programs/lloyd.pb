// Lloyd k-means written entirely in the language (no host helpers):
// nested distance loops, rank-2 indexing, a two-producer choice site
// for the seeding rule, an accuracy-variable-sized intermediate and a
// `for_enough` refinement loop. The metric is the paper's
// sqrt(2n / sum D^2) (§6.1.2), computed in the language as well, so
// -- unlike the shipped kmeans.pb, whose metric is the constant 1 --
// the accuracy bins are met only by configurations that do real work.

transform lloyd
accuracy_metric lloydacc
accuracy_variable k 1 24
from Points[2, n]
through Seeds[2, k]
to Assignments[n], Centres[2, k]
{
    to (Seeds s) from (Points p) {
        for (j in 0 .. cols(s)) {
            let src = floor(rand(0, cols(p)));
            s[0, j] = p[0, src];
            s[1, j] = p[1, src];
        }
    }
    to (Seeds s) from (Points p) {
        for (j in 0 .. cols(s)) {
            let src = floor(j * cols(p) / cols(s));
            s[0, j] = p[0, src];
            s[1, j] = p[1, src];
        }
    }
    to (Assignments a, Centres c) from (Points p, Seeds s) {
        for (j in 0 .. cols(c)) {
            c[0, j] = s[0, j];
            c[1, j] = s[1, j];
        }
        for_enough {
            for (i in 0 .. len(a)) {
                let best = 0;
                let bestd = sqdist(p[0, i], p[1, i], c[0, 0], c[1, 0]);
                for (j in 1 .. cols(c)) {
                    let d = sqdist(p[0, i], p[1, i], c[0, j], c[1, j]);
                    if (d < bestd) {
                        bestd = d;
                        best = j;
                    }
                }
                a[i] = best;
            }
            for (j in 0 .. cols(c)) {
                let sx = 0;
                let sy = 0;
                let m = 0;
                for (i in 0 .. len(a)) {
                    if (a[i] == j) {
                        sx = sx + p[0, i];
                        sy = sy + p[1, i];
                        m = m + 1;
                    }
                }
                if (m > 0) {
                    c[0, j] = sx / m;
                    c[1, j] = sy / m;
                }
            }
        }
    }
}

transform sqdist
from Ax, Ay, Bx, By
to D
{
    to (D d) from (Ax ax, Ay ay, Bx bx, By by) {
        d = (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
    }
}

transform lloydacc
from Assignments[n], Centres[2, m], Points[2, n]
to Accuracy
{
    to (Accuracy acc) from (Assignments a, Centres c, Points p) {
        let total = 0;
        for (i in 0 .. len(a)) {
            total = total + sqdist(p[0, i], p[1, i], c[0, a[i]], c[1, a[i]]);
        }
        acc = sqrt(2 * len(a) / max(total, 0.000000000001));
    }
}
