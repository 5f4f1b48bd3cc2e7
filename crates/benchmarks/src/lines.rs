//! Line-at-a-time visits for stencils on grids with a zero Dirichlet
//! boundary.
//!
//! A line is one row of a 2D grid or one `k`-line of a 3D grid. The
//! visits pass a point's two in-line neighbours as values, `0.0` past
//! either end, so a stencil's interior runs without boundary tests and
//! its boundary strip reads exactly the `+0.0` the boundary holds.

/// Calls `point(k, line[k − 1], line[k + 1])` for every `k`.
#[inline(always)]
pub(crate) fn each_point(line: &[f64], mut point: impl FnMut(usize, f64, f64)) {
    let n = line.len();
    point(0, 0.0, line.get(1).copied().unwrap_or(0.0));
    for k in 1..n.saturating_sub(1) {
        point(k, line[k - 1], line[k + 1]);
    }
    if n > 1 {
        point(n - 1, line[n - 2], 0.0);
    }
}

/// Calls `point(line, k, line[k − 1], line[k + 1])` for `k = start,
/// start + 2, …`: one colour of a red-black sweep, which may update
/// `line[k]` because it reads only the other colour.
#[inline(always)]
pub(crate) fn each_of_colour(
    line: &mut [f64],
    start: usize,
    mut point: impl FnMut(&mut [f64], usize, f64, f64),
) {
    let n = line.len();
    let mut k = start;
    if k == 0 {
        let right = line.get(1).copied().unwrap_or(0.0);
        point(line, 0, 0.0, right);
        k = 2;
    }
    while k + 1 < n {
        let (left, right) = (line[k - 1], line[k + 1]);
        point(line, k, left, right);
        k += 2;
    }
    if k == n - 1 {
        let left = line[k - 1];
        point(line, k, left, 0.0);
    }
}

/// Splits `data`, lines of `len` values, into the lines before line
/// `l`, line `l` itself and the lines after it.
#[inline(always)]
pub(crate) fn split_line(data: &mut [f64], len: usize, l: usize) -> (&[f64], &mut [f64], &[f64]) {
    let (before, rest) = data.split_at_mut(l * len);
    let (line, after) = rest.split_at_mut(len);
    (before, line, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_sees_zero_past_the_ends() {
        for n in 1..5 {
            let line: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let mut seen = Vec::new();
            each_point(&line, |k, l, r| seen.push((k, l, r)));
            let want: Vec<_> = (0..n)
                .map(|k| {
                    let at = |x: isize| line.get(x as usize).copied().unwrap_or(0.0);
                    (k, at(k as isize - 1), at(k as isize + 1))
                })
                .collect();
            assert_eq!(seen, want, "n={n}");
        }
    }

    #[test]
    fn a_colour_is_every_other_point_from_its_start() {
        for n in 1..6 {
            for start in 0..2 {
                let mut line: Vec<f64> = (1..=n).map(|v| v as f64).collect();
                let mut seen = Vec::new();
                each_of_colour(&mut line, start, |_, k, l, r| seen.push((k, l, r)));
                let want: Vec<_> = (start..n)
                    .step_by(2)
                    .map(|k| {
                        let at = |x: isize| {
                            if x < 0 || x >= n as isize {
                                0.0
                            } else {
                                (x + 1) as f64
                            }
                        };
                        (k, at(k as isize - 1), at(k as isize + 1))
                    })
                    .collect();
                assert_eq!(seen, want, "n={n} start={start}");
            }
        }
    }

    #[test]
    fn split_line_cuts_around_one_line() {
        let mut data: Vec<f64> = (0..6).map(f64::from).collect();
        let (before, line, after) = split_line(&mut data, 2, 1);
        assert_eq!(
            (before, &*line, after),
            (&[0.0, 1.0][..], &[2.0, 3.0][..], &[4.0, 5.0][..])
        );
    }
}
