//! Output checks. Every answer the benchmark receives goes through one of
//! these predicates, and every failed predicate counts against
//! `failed_op_ratio`.

use pacsrv::wire::Response;
use pactree::data::Pair;

/// The value the benchmark stores under key id `id`. Loads, inserts and
/// service `Put`s all write this, so every read knows its answer.
pub fn value_of(id: u64) -> u64 {
    id + 1
}

/// Attempted and failed checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A lookup of a loaded id returns its loaded value.
pub fn lookup_ok(id: u64, got: Option<u64>) -> bool {
    got == Some(value_of(id))
}

/// An insert of a fresh id succeeds and finds no previous value.
pub fn insert_ok<E>(result: &Result<Option<u64>, E>) -> bool {
    matches!(result, Ok(None))
}

/// A scan from the key of loaded id `start_id` returns that key first with
/// its value, ascends strictly, and returns `want` pairs unless it ran off
/// the end of the key space — in which case it saw at least every loaded
/// key at or after `start` (`loaded_from_start` of them).
pub fn scan_ok(
    start: &[u8],
    start_id: u64,
    want: usize,
    loaded_from_start: usize,
    pairs: &[Pair],
) -> bool {
    let Some(first) = pairs.first() else {
        return false;
    };
    if first.key != start || first.value != value_of(start_id) || pairs.len() > want {
        return false;
    }
    if !pairs.windows(2).all(|w| w[0].key < w[1].key) {
        return false;
    }
    pairs.len() == want || pairs.len() >= loaded_from_start
}

/// A service reply answers its request: a `Get` of a loaded id returns the
/// loaded value and a `Put` is acknowledged. Shed, timed-out, aborted and
/// malformed replies are failures.
pub fn reply_ok(is_put: bool, id: u64, resp: &Response) -> bool {
    match resp {
        Response::Value(Some(v)) => !is_put && *v == value_of(id),
        Response::Ok => is_put,
        _ => false,
    }
}

/// Feeds one wrong answer of each kind to the checks above and confirms
/// each is counted. A run whose checks cannot see a wrong answer is not
/// correct, whatever its tally says.
pub fn self_test() -> bool {
    let mut t = Tally::default();
    t.record(lookup_ok(7, Some(value_of(7) + 1)));
    t.record(insert_ok::<()>(&Ok(Some(3))));
    let key = |k: u64| k.to_be_bytes().to_vec();
    let pair = |k: u64| Pair {
        key: key(k),
        value: value_of(k),
    };
    // Descending second pair.
    t.record(scan_ok(&key(5), 5, 3, 10, &[pair(5), pair(4), pair(6)]));
    t.record(reply_ok(false, 9, &Response::Overloaded));
    t.attempted == 4 && t.failed == 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(k: u64) -> Pair {
        Pair {
            key: k.to_be_bytes().to_vec(),
            value: value_of(k),
        }
    }

    fn key(k: u64) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    #[test]
    fn right_answers_pass() {
        assert!(lookup_ok(4, Some(5)));
        assert!(insert_ok::<()>(&Ok(None)));
        assert!(scan_ok(&key(1), 1, 3, 9, &[pair(1), pair(2), pair(3)]));
        // Short scan at the end of the key space.
        assert!(scan_ok(&key(8), 8, 5, 2, &[pair(8), pair(9)]));
        assert!(reply_ok(false, 3, &Response::Value(Some(4))));
        assert!(reply_ok(true, 3, &Response::Ok));
    }

    #[test]
    fn wrong_answers_fail() {
        assert!(!lookup_ok(4, None));
        assert!(!lookup_ok(4, Some(4)));
        assert!(!insert_ok::<()>(&Err(())));
        // Wrong start, empty, short before the end, longer than asked.
        assert!(!scan_ok(&key(1), 1, 3, 9, &[pair(2), pair(3), pair(4)]));
        assert!(!scan_ok(&key(1), 1, 3, 9, &[]));
        assert!(!scan_ok(&key(1), 1, 3, 9, &[pair(1), pair(2)]));
        assert!(!scan_ok(&key(1), 1, 2, 9, &[pair(1), pair(2), pair(3)]));
        for bad in [
            Response::Value(None),
            Response::Value(Some(3)),
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::Aborted,
            Response::Malformed,
            Response::Ok,
        ] {
            assert!(!reply_ok(false, 3, &bad), "{bad:?}");
        }
        assert!(!reply_ok(true, 3, &Response::Value(Some(4))));
    }

    #[test]
    fn self_test_counts_every_wrong_answer() {
        assert!(self_test());
    }
}
