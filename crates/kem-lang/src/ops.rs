//! Pure scalar semantics of KJS operators.
//!
//! Both the live interpreter (`kem`'s `run_server`) and the verifier's
//! grouped (multivalue) re-executor evaluate expressions through these
//! functions, guaranteeing the two agree operation-for-operation — a
//! prerequisite for audit Completeness.

// Operands are attacker-reachable (request payloads): integer
// arithmetic here is `wrapping_*` / `checked_*`, never a bare operator
// that panics on overflow or `i64::MIN / -1`.
#![deny(clippy::arithmetic_side_effects)]

use crate::ast::BinOp;
use crate::error::RuntimeError;
use crate::pvalue::PMap;
use crate::value::Value;
use std::sync::Arc;

/// What [`int_binop`] yields: an integer, or a comparison's or logical
/// operator's bool. `Copy`, so a fused window (`crate::bytecode`)
/// computes on it in a register without building a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// An integer: [`Value::Int`].
    Int(i64),
    /// A bool: [`Value::Bool`].
    Bool(bool),
}

impl Scalar {
    /// [`Value::truthy`] of the value it stands for.
    #[inline]
    pub fn truthy(self) -> bool {
        match self {
            Scalar::Int(i) => i != 0,
            Scalar::Bool(b) => b,
        }
    }
}

impl From<Scalar> for Value {
    #[inline]
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::Int(i) => Value::Int(i),
            Scalar::Bool(b) => Value::Bool(b),
        }
    }
}

/// `x op y` over two ints, where every operator of the language is
/// defined: `+ − × ÷ %` wrap (so `i64::MIN / -1` is `i64::MIN`, not a
/// panic), comparisons are numeric, `And` / `Or` read nonzero as true.
/// `None` exactly where [`eval_binop`] errors: `/ 0` and `% 0`. The one
/// definition of integer arithmetic — [`eval_binop`] and the fused
/// windows of integer runs (`crate::bytecode`) both call it.
#[inline]
pub fn int_binop(op: BinOp, x: i64, y: i64) -> Option<Scalar> {
    use BinOp::*;
    use Scalar::{Bool, Int};
    Some(match op {
        Add => Int(x.wrapping_add(y)),
        Sub => Int(x.wrapping_sub(y)),
        Mul => Int(x.wrapping_mul(y)),
        Div | Mod if y == 0 => return None,
        // Past the guard `checked_*` is `None` only for `i64::MIN / -1`,
        // whose quotient wraps to `i64::MIN` and whose remainder is 0.
        Div => Int(x.checked_div(y).unwrap_or(i64::MIN)),
        Mod => Int(x.checked_rem(y).unwrap_or(0)),
        Eq => Bool(x == y),
        Ne => Bool(x != y),
        Lt => Bool(x < y),
        Le => Bool(x <= y),
        Gt => Bool(x > y),
        Ge => Bool(x >= y),
        And => Bool(x != 0 && y != 0),
        Or => Bool(x != 0 || y != 0),
    })
}

/// Evaluates a binary operator on two values.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return int_binop(op, *x, *y).map(Value::from).ok_or_else(|| {
            RuntimeError::new(if op == Div {
                "division by zero"
            } else {
                "remainder by zero"
            })
        });
    }
    Ok(match op {
        Add => match (a, b) {
            (Value::Str(x), Value::Str(y)) => Value::str(format!("{x}{y}")),
            (Value::List(x), Value::List(y)) => Value::List(x.concat(y)),
            _ => return Err(RuntimeError::type_error("add", a)),
        },
        Sub | Mul | Div | Mod => return Err(RuntimeError::type_error("arithmetic", a)),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt | Le | Gt | Ge => {
            let (Value::Str(x), Value::Str(y)) = (a, b) else {
                return Err(RuntimeError::type_error("comparison", a));
            };
            Value::Bool(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                _ => x >= y,
            })
        }
        And => Value::Bool(a.truthy() && b.truthy()),
        Or => Value::Bool(a.truthy() || b.truthy()),
    })
}

/// `a[i]`: list by integer index, map by string key; `null` if absent.
pub fn eval_index(a: &Value, i: &Value) -> Result<Value, RuntimeError> {
    match (a, i) {
        (Value::List(l), Value::Int(n)) => Ok(l.get(*n as usize).cloned().unwrap_or(Value::Null)),
        (Value::Map(m), Value::Str(k)) => Ok(m.get(k).cloned().unwrap_or(Value::Null)),
        _ => Err(RuntimeError::type_error("index", a)),
    }
}

/// Length of a string/list/map.
pub fn eval_len(a: &Value) -> Result<Value, RuntimeError> {
    Ok(Value::Int(
        a.len().ok_or_else(|| RuntimeError::type_error("len", a))? as i64,
    ))
}

/// Membership: key in map, element in list, substring in string.
pub fn eval_contains(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Map(m), Value::Str(k)) => Ok(Value::Bool(m.contains_key(k))),
        (Value::List(l), x) => Ok(Value::Bool(l.contains(x))),
        (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_ref()))),
        _ => Err(RuntimeError::type_error("contains", a)),
    }
}

/// Functional map insert: O(log n) path copy, sharing every untouched
/// subtree with `m`. The key's `Arc<str>` is reused, so no string is
/// copied either.
pub fn eval_map_insert(m: &Value, k: &Value, v: &Value) -> Result<Value, RuntimeError> {
    MapEdit::insert(m, k, v).map(MapEdit::build)
}

/// Functional map remove: O(log n) path copy like [`eval_map_insert`].
pub fn eval_map_remove(m: &Value, k: &Value) -> Result<Value, RuntimeError> {
    MapEdit::remove(m, k).map(MapEdit::build)
}

/// A map insert or remove whose operands have been type-checked, not
/// yet applied: what [`eval_map_insert`] and [`eval_map_remove`] build,
/// and what a verifier can compare with a logged map without building
/// it ([`MapEdit::eq_built`]).
#[derive(Debug, Clone, Copy)]
pub enum MapEdit<'a> {
    /// `map` with `key` bound to `value`.
    Insert {
        /// The map edited.
        map: &'a PMap,
        /// The key bound.
        key: &'a Arc<str>,
        /// The value bound to it.
        value: &'a Value,
    },
    /// `map` without `key`.
    Remove {
        /// The map edited.
        map: &'a PMap,
        /// The key removed.
        key: &'a str,
    },
}

impl<'a> MapEdit<'a> {
    /// `map_insert(m, k, v)`, or its type error.
    pub fn insert(m: &'a Value, k: &'a Value, v: &'a Value) -> Result<Self, RuntimeError> {
        let Value::Map(map) = m else {
            return Err(RuntimeError::type_error("map-insert", m));
        };
        let Value::Str(key) = k else {
            return Err(RuntimeError::type_error("map-insert key", k));
        };
        Ok(MapEdit::Insert { map, key, value: v })
    }

    /// `map_remove(m, k)`, or its type error.
    pub fn remove(m: &'a Value, k: &'a Value) -> Result<Self, RuntimeError> {
        let Value::Map(map) = m else {
            return Err(RuntimeError::type_error("map-remove", m));
        };
        let Some(key) = k.as_str() else {
            return Err(RuntimeError::type_error("map-remove key", k));
        };
        Ok(MapEdit::Remove { map, key })
    }

    /// The edited map, built: a path copy.
    pub fn build(self) -> Value {
        Value::Map(match self {
            MapEdit::Insert { map, key, value } => map.insert(Arc::clone(key), value.clone()),
            MapEdit::Remove { map, key } => map.remove(key),
        })
    }

    /// Whether `v` equals [`MapEdit::build`]'s map, decided without
    /// building it ([`PMap::eq_inserted`], [`PMap::eq_removed`]).
    pub fn eq_built(self, v: &Value) -> bool {
        let Value::Map(logged) = v else {
            return false;
        };
        match self {
            MapEdit::Insert { map, key, value } => logged.eq_inserted(map, key, value),
            MapEdit::Remove { map, key } => logged.eq_removed(map, key),
        }
    }
}

/// Functional list push: copies only the rightmost spine of the
/// chunked list, sharing the prefix with `l`.
pub fn eval_list_push(l: &Value, v: &Value) -> Result<Value, RuntimeError> {
    let Value::List(list) = l else {
        return Err(RuntimeError::type_error("list-push", l));
    };
    Ok(Value::List(list.push(v.clone())))
}

/// Sorted keys of a map.
pub fn eval_keys(m: &Value) -> Result<Value, RuntimeError> {
    let Value::Map(map) = m else {
        return Err(RuntimeError::type_error("keys", m));
    };
    Ok(Value::List(
        map.keys().map(|k| Value::Str(Arc::clone(k))).collect(),
    ))
}

/// Stable hex digest.
pub fn eval_digest(v: &Value) -> Value {
    Value::str(format!("{:016x}", v.digest()))
}

/// Stringify.
pub fn eval_to_str(v: &Value) -> Value {
    match v {
        Value::Str(_) => v.clone(),
        other => Value::str(other.to_string()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_wraps_and_never_panics() {
        use BinOp::*;
        let bin = |op, x: i64, y: i64| eval_binop(op, &Value::int(x), &Value::int(y));
        // `i64::MIN / -1` overflows: a bare `/` panics in release too.
        assert_eq!(bin(Div, i64::MIN, -1).unwrap(), Value::int(i64::MIN));
        assert_eq!(bin(Mod, i64::MIN, -1).unwrap(), Value::int(0));
        assert_eq!(bin(Mul, i64::MAX, 2).unwrap(), Value::int(-2));
        assert_eq!(bin(Div, 7, 2).unwrap(), Value::int(3));
        assert_eq!(bin(Mod, -7, 2).unwrap(), Value::int(-1));
        assert_eq!(bin(Div, 7, 0).unwrap_err().message, "division by zero");
        assert_eq!(bin(Mod, 7, 0).unwrap_err().message, "remainder by zero");
        // The shared definition declines exactly where `eval_binop` errors.
        for op in [Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            for (x, y) in [
                (i64::MIN, -1),
                (7, 0),
                (0, 0),
                (-3, 5),
                (i64::MAX, i64::MAX),
            ] {
                let fused = int_binop(op, x, y);
                assert_eq!(fused.map(Value::from), bin(op, x, y).ok(), "{op:?} {x} {y}");
                let truthy = bin(op, x, y).ok().map(|v| v.truthy());
                assert_eq!(fused.map(Scalar::truthy), truthy, "{op:?} {x} {y}");
            }
        }
        assert_eq!(
            eval_binop(Sub, &Value::int(1), &Value::str("a"))
                .unwrap_err()
                .message,
            "type error in arithmetic: got int"
        );
        assert_eq!(
            eval_binop(Lt, &Value::str("a"), &Value::str("b")).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn index_semantics() {
        let l = Value::list([Value::int(10), Value::int(20)]);
        assert_eq!(eval_index(&l, &Value::int(1)).unwrap(), Value::int(20));
        assert_eq!(eval_index(&l, &Value::int(5)).unwrap(), Value::Null);
        let m = Value::map([("k", Value::int(1))]);
        assert_eq!(eval_index(&m, &Value::str("k")).unwrap(), Value::int(1));
        assert!(eval_index(&Value::Null, &Value::int(0)).is_err());
    }

    #[test]
    fn functional_updates_do_not_mutate() {
        let m = Value::map([("a", Value::int(1))]);
        let m2 = eval_map_insert(&m, &Value::str("b"), &Value::int(2)).unwrap();
        assert_eq!(m.len(), Some(1));
        assert_eq!(m2.len(), Some(2));
        let m3 = eval_map_remove(&m2, &Value::str("a")).unwrap();
        assert_eq!(m3.len(), Some(1));
        assert_eq!(m2.len(), Some(2));
    }

    #[test]
    fn keys_are_sorted() {
        let m = Value::map([("b", Value::Null), ("a", Value::Null)]);
        assert_eq!(
            eval_keys(&m).unwrap(),
            Value::list([Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn digest_and_to_str() {
        assert_eq!(eval_digest(&Value::int(1)), eval_digest(&Value::int(1)));
        assert_ne!(eval_digest(&Value::int(1)), eval_digest(&Value::int(2)));
        assert_eq!(eval_to_str(&Value::int(5)), Value::str("5"));
        assert_eq!(eval_to_str(&Value::str("s")), Value::str("s"));
    }

    #[test]
    fn contains_variants() {
        let m = Value::map([("k", Value::Null)]);
        assert_eq!(
            eval_contains(&m, &Value::str("k")).unwrap(),
            Value::Bool(true)
        );
        let l = Value::list([Value::int(3)]);
        assert_eq!(
            eval_contains(&l, &Value::int(3)).unwrap(),
            Value::Bool(true)
        );
        let s = Value::str("hello");
        assert_eq!(
            eval_contains(&s, &Value::str("ell")).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_contains(&Value::int(1), &Value::int(1)).is_err());
    }
}
