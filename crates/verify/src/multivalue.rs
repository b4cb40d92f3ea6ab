//! Multivalues: the SIMD-on-demand datatype (§2.3, §5).
//!
//! A multivalue holds one logical value per request of a re-execution
//! group. It "collapses when all of the entries are identical, and
//! expands into a vector when needed": uniform values are computed once
//! for the whole group — this deduplication is where batched
//! re-execution gets its speedup.
//!
//! [`MultiValue`] is the replay's [`Operand`]: the verifier runs the
//! server's own dispatch loop (`kem_lang::vm`) over it.

use kem_lang::vm::Operand;
use kem_lang::{RuntimeError, Value};

/// A group-wide value: either one shared value or one per request.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiValue {
    /// The same value for every request in the group.
    Uniform(Value),
    /// One value per request (indexed like the group's request list).
    Per(Vec<Value>),
}

impl MultiValue {
    /// A collapsed value.
    pub fn uniform(v: Value) -> Self {
        MultiValue::Uniform(v)
    }

    /// Builds from per-request values, collapsing if they are all equal.
    pub fn from_vec(mut vs: Vec<Value>) -> Self {
        if vs.is_empty() {
            return MultiValue::Uniform(Value::Null);
        }
        if vs.windows(2).all(|w| w[0] == w[1]) {
            MultiValue::Uniform(vs.swap_remove(0))
        } else {
            MultiValue::Per(vs)
        }
    }

    /// Whether the value is collapsed.
    pub fn is_uniform(&self) -> bool {
        matches!(self, MultiValue::Uniform(_))
    }

    /// The value for request index `i`.
    pub fn get(&self, i: usize) -> &Value {
        match self {
            MultiValue::Uniform(v) => v,
            MultiValue::Per(vs) => &vs[i],
        }
    }

    /// Expands to a per-request vector of length `n`.
    pub fn to_vec(&self, n: usize) -> Vec<Value> {
        match self {
            MultiValue::Uniform(v) => vec![v.clone(); n],
            MultiValue::Per(vs) => vs.clone(),
        }
    }

    /// Borrowing per-request iterator: yields `n` references without
    /// expanding a collapsed value (the allocation-free counterpart of
    /// [`MultiValue::to_vec`]).
    pub fn iter(&self, n: usize) -> MultiValueIter<'_> {
        MultiValueIter(match self {
            MultiValue::Uniform(v) => IterInner::Uniform { v, left: n },
            MultiValue::Per(vs) => IterInner::Per(vs.iter()),
        })
    }

    /// Builds a multivalue from a fallible per-index producer, staying
    /// collapsed while produced values stay equal: a uniform result
    /// performs **zero** heap allocations; the expansion to [`Per`] is
    /// deferred until the first diverging index.
    ///
    /// [`Per`]: MultiValue::Per
    pub fn collect<E>(
        n: usize,
        mut f: impl FnMut(usize) -> Result<Value, E>,
    ) -> Result<MultiValue, E> {
        if n == 0 {
            return Ok(MultiValue::Uniform(Value::Null));
        }
        let first = f(0)?;
        let mut per: Option<Vec<Value>> = None;
        for i in 1..n {
            let v = f(i)?;
            match per.as_mut() {
                Some(vs) => vs.push(v),
                None if v != first => {
                    // Divergence: indices `0..i` all equaled `first`.
                    let mut vs = Vec::with_capacity(n);
                    vs.resize(i, first.clone());
                    vs.push(v);
                    per = Some(vs);
                }
                None => {}
            }
        }
        Ok(match per {
            Some(vs) => MultiValue::Per(vs),
            None => MultiValue::Uniform(first),
        })
    }

    /// Applies a fallible unary operation, once if collapsed; per
    /// member through [`MultiValue::collect`] otherwise, so a result
    /// that re-collapses allocates nothing.
    pub fn map<E>(&self, mut f: impl FnMut(&Value) -> Result<Value, E>) -> Result<MultiValue, E> {
        match self {
            MultiValue::Uniform(v) => Ok(MultiValue::Uniform(f(v)?)),
            MultiValue::Per(vs) => MultiValue::collect(vs.len(), |i| f(&vs[i])),
        }
    }

    /// Applies a fallible binary operation; computed once when both
    /// operands are collapsed (SIMD-on-demand), per member through
    /// [`MultiValue::collect`] otherwise.
    pub fn zip<E>(
        &self,
        other: &MultiValue,
        n: usize,
        mut f: impl FnMut(&Value, &Value) -> Result<Value, E>,
    ) -> Result<MultiValue, E> {
        match (self, other) {
            (MultiValue::Uniform(a), MultiValue::Uniform(b)) => Ok(MultiValue::Uniform(f(a, b)?)),
            _ => MultiValue::collect(n, |i| f(self.get(i), other.get(i))),
        }
    }
}

impl Operand for MultiValue {
    fn from_value(v: Value) -> Self {
        MultiValue::Uniform(v)
    }

    fn uniform(&self) -> Option<&Value> {
        match self {
            MultiValue::Uniform(v) => Some(v),
            MultiValue::Per(_) => None,
        }
    }

    fn member(&self, i: usize) -> &Value {
        self.get(i)
    }

    fn from_members<E>(n: usize, f: impl FnMut(usize) -> Result<Value, E>) -> Result<Self, E> {
        MultiValue::collect(n, f)
    }

    fn map(
        &self,
        f: impl FnMut(&Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError> {
        MultiValue::map(self, f)
    }

    fn zip(
        &self,
        other: &Self,
        n: usize,
        f: impl FnMut(&Value, &Value) -> Result<Value, RuntimeError>,
    ) -> Result<Self, RuntimeError> {
        MultiValue::zip(self, other, n, f)
    }
}

/// Borrowing iterator returned by [`MultiValue::iter`].
#[derive(Debug)]
pub struct MultiValueIter<'a>(IterInner<'a>);

#[derive(Debug)]
enum IterInner<'a> {
    Uniform { v: &'a Value, left: usize },
    Per(std::slice::Iter<'a, Value>),
}

impl<'a> Iterator for MultiValueIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match &mut self.0 {
            IterInner::Uniform { v, left } => {
                if *left == 0 {
                    None
                } else {
                    *left -= 1;
                    Some(v)
                }
            }
            IterInner::Per(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterInner::Uniform { left, .. } => (*left, Some(*left)),
            IterInner::Per(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for MultiValueIter<'_> {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_collapses_identical() {
        let mv = MultiValue::from_vec(vec![Value::int(1), Value::int(1)]);
        assert!(mv.is_uniform());
        assert_eq!(mv.get(1), &Value::int(1));
    }

    #[test]
    fn from_vec_keeps_distinct() {
        let mv = MultiValue::from_vec(vec![Value::int(1), Value::int(2)]);
        assert!(!mv.is_uniform());
        assert_eq!(mv.get(0), &Value::int(1));
        assert_eq!(mv.get(1), &Value::int(2));
    }

    #[test]
    fn zip_uniform_computes_once() {
        let a = MultiValue::uniform(Value::int(2));
        let b = MultiValue::uniform(Value::int(3));
        let mut calls = 0;
        let r = a
            .zip::<()>(&b, 4, |x, y| {
                calls += 1;
                Ok(Value::int(x.as_int().unwrap() + y.as_int().unwrap()))
            })
            .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(r, MultiValue::uniform(Value::int(5)));
    }

    #[test]
    fn zip_expanded_computes_per_request() {
        let a = MultiValue::Per(vec![Value::int(1), Value::int(2)]);
        let b = MultiValue::uniform(Value::int(10));
        let r = a
            .zip::<()>(&b, 2, |x, y| {
                Ok(Value::int(x.as_int().unwrap() + y.as_int().unwrap()))
            })
            .unwrap();
        assert_eq!(r.to_vec(2), vec![Value::int(11), Value::int(12)]);
    }

    #[test]
    fn zip_result_can_recollapse() {
        // Different inputs, same output (e.g. comparing to a constant).
        let a = MultiValue::Per(vec![Value::int(1), Value::int(2)]);
        let r = a
            .map::<()>(|v| Ok(Value::Bool(v.as_int().unwrap() > 0)))
            .unwrap();
        assert!(r.is_uniform());
    }

    #[test]
    fn truthiness_divergence() {
        let mv = MultiValue::Per(vec![Value::Bool(true), Value::Bool(false)]);
        assert_eq!(Operand::truthiness(&mv, 2), None);
        let mv = MultiValue::Per(vec![Value::int(1), Value::int(2)]);
        assert_eq!(
            Operand::truthiness(&mv, 2),
            Some(true),
            "different values, same truthiness"
        );
    }

    #[test]
    fn empty_vec_is_null_uniform() {
        assert_eq!(
            MultiValue::from_vec(vec![]),
            MultiValue::uniform(Value::Null)
        );
    }

    #[test]
    fn iter_repeats_uniform_and_walks_per() {
        let u = MultiValue::uniform(Value::int(7));
        let got: Vec<&Value> = u.iter(3).collect();
        assert_eq!(got, vec![&Value::int(7); 3]);
        assert_eq!(u.iter(3).len(), 3);

        let p = MultiValue::Per(vec![Value::int(1), Value::int(2)]);
        let got: Vec<&Value> = p.iter(2).collect();
        assert_eq!(got, vec![&Value::int(1), &Value::int(2)]);
        assert_eq!(MultiValue::uniform(Value::Null).iter(0).next(), None);
    }

    #[test]
    fn map_and_zip_are_collect_over_the_members() {
        // Same values as building the vector and collapsing it, members
        // visited in order, evaluation stopped at the first error.
        let per = MultiValue::Per(vec![Value::int(4), Value::int(6), Value::int(9)]);
        let k = MultiValue::uniform(Value::int(2));
        let mut seen = Vec::new();
        let halves = per
            .zip::<()>(&k, 3, |x, y| {
                seen.push(x.clone());
                Ok(Value::int(x.as_int().unwrap() / y.as_int().unwrap()))
            })
            .unwrap();
        assert_eq!(
            halves,
            MultiValue::from_vec(vec![Value::int(2), Value::int(3), Value::int(4)])
        );
        assert_eq!(seen, per.to_vec(3));
        // Expanded in, collapsed out (allocation-free: the pin is
        // `tests/alloc_regression.rs`, which has the counting allocator).
        let positive = |v: &Value| Ok::<_, ()>(Value::Bool(v.as_int().unwrap() > 0));
        assert_eq!(
            per.map(positive),
            Ok(MultiValue::uniform(Value::Bool(true)))
        );
        assert_eq!(
            k.zip::<()>(&per, 3, |x, y| Ok(Value::Bool(x.as_int() < y.as_int()))),
            Ok(MultiValue::uniform(Value::Bool(true)))
        );
        let mut calls = 0;
        let err = per.map(|v| {
            calls += 1;
            if v == &Value::int(6) {
                Err("second member")
            } else {
                Ok(Value::Null)
            }
        });
        assert_eq!((err, calls), (Err("second member"), 2));
    }

    #[test]
    fn collect_stays_collapsed_until_divergence() {
        let all_equal = MultiValue::collect::<()>(4, |_| Ok(Value::int(5))).unwrap();
        assert_eq!(all_equal, MultiValue::uniform(Value::int(5)));

        // Diverges at index 2: earlier (equal) prefix is backfilled.
        let mixed =
            MultiValue::collect::<()>(4, |i| Ok(Value::int(if i < 2 { 9 } else { i as i64 })))
                .unwrap();
        assert_eq!(
            mixed,
            MultiValue::Per(vec![
                Value::int(9),
                Value::int(9),
                Value::int(2),
                Value::int(3)
            ])
        );

        let err =
            MultiValue::collect::<&str>(3, |i| if i == 1 { Err("boom") } else { Ok(Value::Null) });
        assert_eq!(err, Err("boom"));
        assert_eq!(
            MultiValue::collect::<()>(0, |_| Ok(Value::int(1))),
            Ok(MultiValue::uniform(Value::Null))
        );
    }
}
