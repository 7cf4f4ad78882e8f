//! A growable bitmap over cache-line numbers.

/// A set of line numbers, stored as one bit per line.
///
/// Structure addresses form one compact range from the bottom of the
/// address space, so the bitmap stays small (a bit per structure line)
/// and every operation is a shift and a mask. It grows on demand.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineSet {
    words: Vec<u64>,
}

impl LineSet {
    /// `true` if `line` is in the set.
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.words
            .get((line >> 6) as usize)
            .is_some_and(|word| word & (1 << (line & 63)) != 0)
    }

    /// Adds `line`.
    pub(crate) fn insert(&mut self, line: u64) {
        let word = (line >> 6) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (line & 63);
    }

    /// Removes `line`.
    pub(crate) fn remove(&mut self, line: u64) {
        if let Some(word) = self.words.get_mut((line >> 6) as usize) {
            *word &= !(1 << (line & 63));
        }
    }

    /// Adds every line of `other`.
    pub(crate) fn union_with(&mut self, other: &LineSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// Number of lines in the set.
    pub(crate) fn count(&self) -> u64 {
        self.words.iter().map(|word| word.count_ones() as u64).sum()
    }
}
