//! Identifiers for simulated threads and cores.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a simulated software thread (application or service).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The numeric id.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// This thread's entry in a table indexed by [`Self::index`], growing
    /// the table with default entries up to it. Simulated thread ids are
    /// dense from zero, so such a table stays as small as the thread count.
    #[inline]
    pub fn slot<T: Default>(self, table: &mut Vec<T>) -> &mut T {
        let i = self.index();
        if i >= table.len() {
            table.resize_with(i + 1, T::default);
        }
        &mut table[i]
    }
}

impl fmt::Display for ThreadId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a hardware core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct CoreId(pub u8);

impl CoreId {
    /// The numeric id.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(format!("{}", ThreadId(3)), "t3");
        assert_eq!(format!("{}", CoreId(1)), "core1");
        assert_eq!(ThreadId(7).index(), 7);
        assert_eq!(CoreId(2).index(), 2);
    }

    #[test]
    fn slot_grows_the_table_to_the_id() {
        let mut table: Vec<u32> = vec![5];
        *ThreadId(3).slot(&mut table) += 2;
        assert_eq!(table, [5, 0, 0, 2]);
        *ThreadId(0).slot(&mut table) += 1;
        assert_eq!(table, [6, 0, 0, 2]);
    }
}
