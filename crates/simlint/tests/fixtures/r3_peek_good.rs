// simlint-fixture: path=crates/simkit/src/fixture_heap.rs
//! Known-good R3 corpus: `BinaryHeap::peek` in a file that never
//! touches `Fabric` is not a finding, and tests may peek freely.

use std::collections::BinaryHeap;

struct DeadlineHeap {
    heap: BinaryHeap<u64>,
}

impl DeadlineHeap {
    fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().copied()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_peek_the_fabric() {
        let mut fabric = test_fabric();
        let mut buf = [0u8; 8];
        fabric.peek(0, &mut buf);
        fabric.peek_settled(0, &mut buf);
    }
}
