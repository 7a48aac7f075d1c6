//! Epochal times and time-interval decompositions (§4.1, §4.2, §4.3.2).
//!
//! Two flavours exist:
//!
//! * **Concrete** intervals between sorted distinct breakpoint values —
//!   used by System (1) (breakpoints = release dates) and System (2)
//!   (breakpoints = releases ∪ deadlines at a fixed objective value `F`).
//! * **Symbolic** intervals whose bounds are *affine functions of `F`*,
//!   `a + b·F` — used by Systems (3) and (5) inside one milestone range,
//!   where the paper observes the breakpoint order is constant and hence
//!   interval lengths are affine in `F`.

use dlflow_num::Scalar;

/// Sorted, deduplicated breakpoints → half-open concrete intervals
/// `[points[t], points[t+1])`.
#[derive(Clone, Debug)]
pub struct ConcreteIntervals<S> {
    points: Vec<S>,
}

impl<S: Scalar> ConcreteIntervals<S> {
    /// Builds from an arbitrary collection of epochal times.
    pub fn from_points(mut points: Vec<S>) -> Self {
        Self::normalize(&mut points);
        ConcreteIntervals { points }
    }

    /// Rebuilds in place from new epochal times, reusing the point buffer.
    pub(crate) fn refill(&mut self, points: impl IntoIterator<Item = S>) {
        self.points.clear();
        self.points.extend(points);
        Self::normalize(&mut self.points);
    }

    /// Sorts the epochal times and merges coincident ones.
    fn normalize(points: &mut Vec<S>) {
        points.sort_by(|a, b| a.cmp_total(b));
        points.dedup_by(|a, b| a.sub(b).is_negligible());
    }

    /// Number of finite intervals (`points.len() − 1`).
    pub fn n_intervals(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// Lower bound of interval `t`.
    pub fn inf(&self, t: usize) -> &S {
        &self.points[t]
    }

    /// Upper bound of interval `t`.
    pub fn sup(&self, t: usize) -> &S {
        &self.points[t + 1]
    }

    /// Length of interval `t`.
    pub fn len(&self, t: usize) -> S {
        self.sup(t).sub(self.inf(t))
    }

    /// `true` when there are no finite intervals.
    pub fn is_empty(&self) -> bool {
        self.n_intervals() == 0
    }

    /// All breakpoints.
    pub fn points(&self) -> &[S] {
        &self.points
    }
}

/// An affine function of the objective value: `value(F) = a + b·F`.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineF<S> {
    /// Constant term.
    pub a: S,
    /// Slope in `F` (releases: 0; deadline of job `j`: `1/w_j`).
    pub b: S,
}

impl<S: Scalar> AffineF<S> {
    /// A constant (slope-0) function.
    pub fn constant(a: S) -> Self {
        AffineF { a, b: S::zero() }
    }

    /// Evaluates at a concrete `F`.
    pub fn eval(&self, f: &S) -> S {
        self.a.add(&self.b.mul(f))
    }

    /// Pointwise difference `self − other` (still affine).
    pub fn sub(&self, other: &AffineF<S>) -> AffineF<S> {
        AffineF {
            a: self.a.sub(&other.a),
            b: self.b.sub(&other.b),
        }
    }

    /// `true` when both functions are identical (equal everywhere).
    pub(crate) fn same_function(&self, other: &AffineF<S>) -> bool {
        self.a.sub(&other.a).is_negligible() && self.b.sub(&other.b).is_negligible()
    }
}

/// Symbolic interval decomposition: breakpoints are affine in `F`, ordered
/// by their value at a reference point interior to the current milestone
/// range (where the order is provably constant).
#[derive(Clone, Debug)]
pub struct SymbolicIntervals<S> {
    /// Each breakpoint function with its value at the reference, evaluated
    /// once, in ascending order of that value.
    points: Vec<(S, AffineF<S>)>,
    /// The reference `F` used for ordering (kept for debug/validation).
    reference: S,
}

impl<S: Scalar> SymbolicIntervals<S> {
    /// Builds from breakpoint functions, ordering them by value at
    /// `reference` and merging breakpoints equal there.
    ///
    /// Inside an open milestone range two *distinct* affine breakpoints
    /// never meet, so equality at the reference point implies they are the
    /// same epochal time throughout the range (for genuinely identical
    /// functions) or the reference was (erroneously) a milestone — the
    /// latter is a caller bug surfaced by `debug_assert`.
    pub fn from_points(points: impl IntoIterator<Item = AffineF<S>>, reference: S) -> Self {
        let mut out = SymbolicIntervals {
            points: Vec::new(),
            reference: S::zero(),
        };
        out.refill(points, reference);
        out
    }

    /// Rebuilds in place from new breakpoint functions and reference,
    /// reusing the point buffer.
    pub(crate) fn refill(&mut self, points: impl IntoIterator<Item = AffineF<S>>, reference: S) {
        self.points.clear();
        self.points
            .extend(points.into_iter().map(|p| (p.eval(&reference), p)));
        self.reference = reference;
        self.normalize();
    }

    /// Sorts the breakpoints by value at the reference and merges those
    /// equal there, keeping the first.
    fn normalize(&mut self) {
        self.points.sort_by(|p, q| p.0.cmp_total(&q.0));
        self.points.dedup_by(|p, last| {
            let same = last.0.sub(&p.0).is_negligible();
            // Distinct functions meeting here would mean the reference
            // sits on a milestone.
            debug_assert!(
                !same || last.1.same_function(&p.1) || last.1.b.sub(&p.1.b).is_negligible(),
                "distinct breakpoint functions coincide at the reference point; \
                 reference must be interior to a milestone range"
            );
            same
        });
    }

    /// Number of finite intervals.
    pub fn n_intervals(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// Lower bound function of interval `t`.
    pub fn inf(&self, t: usize) -> &AffineF<S> {
        &self.points[t].1
    }

    /// Upper bound function of interval `t`.
    pub fn sup(&self, t: usize) -> &AffineF<S> {
        &self.points[t + 1].1
    }

    /// Lower bound of interval `t` at the reference.
    pub(crate) fn inf_at_reference(&self, t: usize) -> &S {
        &self.points[t].0
    }

    /// Upper bound of interval `t` at the reference.
    pub(crate) fn sup_at_reference(&self, t: usize) -> &S {
        &self.points[t + 1].0
    }

    /// Length function of interval `t` — affine in `F`, non-negative
    /// throughout the milestone range.
    pub fn len(&self, t: usize) -> AffineF<S> {
        self.sup(t).sub(self.inf(t))
    }

    /// The reference objective value used for ordering.
    pub fn reference(&self) -> &S {
        &self.reference
    }

    /// The ordered breakpoint functions.
    pub fn points(&self) -> impl ExactSizeIterator<Item = &AffineF<S>> {
        self.points.iter().map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlflow_num::Rat;

    #[test]
    fn concrete_sorts_and_dedupes() {
        let iv = ConcreteIntervals::from_points(vec![3.0, 0.0, 1.0, 1.0, 3.0]);
        assert_eq!(iv.points(), &[0.0, 1.0, 3.0]);
        assert_eq!(iv.n_intervals(), 2);
        assert_eq!(iv.len(0), 1.0);
        assert_eq!(iv.len(1), 2.0);
        assert_eq!(*iv.inf(1), 1.0);
        assert_eq!(*iv.sup(1), 3.0);
    }

    #[test]
    fn concrete_single_point() {
        let iv = ConcreteIntervals::from_points(vec![5.0]);
        assert!(iv.is_empty());
        assert_eq!(iv.points(), &[5.0]);
    }

    #[test]
    fn affine_eval_and_sub() {
        let d = AffineF { a: 2.0, b: 0.5 }; // r=2, w=2
        assert_eq!(d.eval(&4.0), 4.0);
        let r = AffineF::constant(1.0);
        let len = d.sub(&r);
        assert_eq!(len.a, 1.0);
        assert_eq!(len.b, 0.5);
        assert!(d.same_function(&AffineF { a: 2.0, b: 0.5 }));
        assert!(!d.same_function(&r));
    }

    #[test]
    fn symbolic_ordering_at_reference() {
        // Breakpoints: release 0, release 2, deadline_1 = 0 + F (w=1),
        // deadline_2 = 2 + F/2 (w=2). At F = 3: values 0, 2, 3, 3.5.
        let pts = vec![
            AffineF::constant(Rat::from_i64(0)),
            AffineF::constant(Rat::from_i64(2)),
            AffineF {
                a: Rat::from_i64(0),
                b: Rat::one(),
            },
            AffineF {
                a: Rat::from_i64(2),
                b: Rat::from_ratio(1, 2),
            },
        ];
        let iv = SymbolicIntervals::from_points(pts, Rat::from_i64(3));
        assert_eq!(iv.n_intervals(), 3);
        // Interval 2 = [deadline_1, deadline_2): length = 2 − F/2... at F=3: 0.5
        let len2 = iv.len(2);
        assert_eq!(len2.eval(&Rat::from_i64(3)), Rat::from_ratio(1, 2));
        assert_eq!(len2.a, Rat::from_i64(2));
        assert_eq!(len2.b, Rat::from_ratio(-1, 2));
    }

    #[test]
    fn symbolic_merges_identical_functions() {
        let pts = vec![
            AffineF::constant(Rat::from_i64(1)),
            AffineF::constant(Rat::from_i64(1)),
            AffineF {
                a: Rat::zero(),
                b: Rat::one(),
            },
        ];
        let iv = SymbolicIntervals::from_points(pts, Rat::from_i64(5));
        assert_eq!(iv.points().len(), 2);
        assert_eq!(*iv.inf_at_reference(0), Rat::one());
        assert_eq!(*iv.sup_at_reference(0), Rat::from_i64(5));
        assert_eq!(iv.n_intervals(), 1);
    }
}
