//! SQL `LIKE` pattern matching with `%` (any run) and `_` (any char).
//!
//! [`Matcher`] compiles a pattern once per evaluation and matches it against
//! each row's text: a pattern of `%`-separated literal pieces checks its
//! anchored first and last pieces with `starts_with`/`ends_with` and finds
//! the inner pieces left to right, eight candidate positions per step. A
//! pattern containing `_` falls back to [`like_match`].

/// Match `text` against a SQL LIKE `pattern`.
///
/// Implemented with the classic two-pointer backtracking algorithm (linear in
/// practice): on a mismatch after a `%`, restart one position later in the
/// text. Operates on bytes, which is correct for ASCII-dominated TPC-H data;
/// `_` consumes one UTF-8 code point to stay panic-free on multibyte text.
/// A `%` in the pattern is always a wildcard, even where the text holds a
/// literal `%`.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t = text.as_bytes();
    let p = pattern.as_bytes();
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)

    while ti < t.len() {
        if pi < p.len() && p[pi] == b'%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == b'_' || p[pi] == t[ti]) {
            if p[pi] == b'_' {
                // Skip a full UTF-8 code point in the text.
                ti += utf8_len(t[ti]);
            } else {
                ti += 1;
            }
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            let next = st + utf8_len(t[st]);
            star = Some((sp, next));
            ti = next;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1, // continuation byte; treat as one to make progress
    }
}

/// A LIKE pattern compiled for matching many texts.
///
/// Without `_`, a pattern is literal pieces between `%`s, and a text
/// matches when the first piece is its prefix, the last piece its suffix
/// (both anchored unless the pattern starts or ends with `%`), and the
/// inner pieces occur in order, without overlap, in what lies between.
/// Finding each inner piece at its leftmost occurrence is enough: an
/// earlier end leaves every later piece more room. Pieces are valid UTF-8
/// and start on a character, so a byte-level find lands on character
/// boundaries only.
pub struct Matcher<'p>(Kind<'p>);

enum Kind<'p> {
    /// A pattern with `_`: the backtracking [`like_match`].
    Backtrack(&'p str),
    /// No wildcard: the text equals the pattern.
    Exact(&'p str),
    /// `prefix%inner%…%suffix`, empty inner pieces dropped.
    Pieces {
        prefix: &'p [u8],
        inner: Vec<Finder<'p>>,
        suffix: &'p [u8],
    },
}

impl<'p> Matcher<'p> {
    /// Compile `pattern`.
    pub fn new(pattern: &'p str) -> Matcher<'p> {
        if pattern.contains('_') {
            return Matcher(Kind::Backtrack(pattern));
        }
        let mut pieces = pattern.split('%');
        let prefix = pieces.next().unwrap_or_default();
        match pieces.next_back() {
            None => Matcher(Kind::Exact(pattern)),
            Some(suffix) => Matcher(Kind::Pieces {
                prefix: prefix.as_bytes(),
                inner: (pieces.filter(|p| !p.is_empty()))
                    .map(|p| Finder::new(p.as_bytes()))
                    .collect(),
                suffix: suffix.as_bytes(),
            }),
        }
    }

    /// Whether `text` matches the pattern.
    #[inline]
    pub fn matches(&self, text: &str) -> bool {
        match &self.0 {
            Kind::Backtrack(pattern) => like_match(text, pattern),
            Kind::Exact(pattern) => text == *pattern,
            Kind::Pieces {
                prefix,
                inner,
                suffix,
            } => {
                let t = text.as_bytes();
                if t.len() < prefix.len() + suffix.len()
                    || !t.starts_with(prefix)
                    || !t.ends_with(suffix)
                {
                    return false;
                }
                let mut rest = &t[prefix.len()..t.len() - suffix.len()];
                for piece in inner {
                    match piece.find(rest) {
                        Some(at) => rest = &rest[at + piece.needle.len()..],
                        None => return false,
                    }
                }
                true
            }
        }
    }
}

/// A byte `1` in every lane of a `u64`.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
/// The high bit of every lane of a `u64`.
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// Leftmost occurrence of a non-empty needle, eight start positions per
/// step: a start is a candidate when the haystack holds the needle's first
/// byte there and its last byte `len − 1` further on, and each candidate is
/// verified in full.
struct Finder<'p> {
    needle: &'p [u8],
    /// The needle's first and last bytes, in every lane.
    first: u64,
    last: u64,
}

impl<'p> Finder<'p> {
    fn new(needle: &'p [u8]) -> Finder<'p> {
        Finder {
            needle,
            first: LANES_LO * u64::from(needle[0]),
            last: LANES_LO * u64::from(needle[needle.len() - 1]),
        }
    }

    /// The first position of `hay` where the needle starts.
    #[inline]
    fn find(&self, hay: &[u8]) -> Option<usize> {
        let (needle, m) = (self.needle, self.needle.len());
        let Some(last) = hay.len().checked_sub(m + 7) else {
            // Too short for one eight-wide step.
            return (0..(hay.len() + 1).saturating_sub(m))
                .find(|&at| hay[at] == needle[0] && &hay[at..at + m] == needle);
        };
        let word = |at: usize| u64::from_le_bytes(hay[at..at + 8].try_into().expect("8 bytes"));
        let mut i = 0;
        loop {
            // The last step starts at `last`, overlapping starts already
            // rejected, so every start up to `hay.len() - m` is covered.
            let at = i.min(last);
            let x = (word(at) ^ self.first) | (word(at + m - 1) ^ self.last);
            // A zero lane of `x` sets its high bit here; a borrow can also
            // set the lane above a zero one, which the check below rejects.
            let mut candidates = x.wrapping_sub(LANES_LO) & !x & LANES_HI;
            while candidates != 0 {
                let start = at + (candidates.trailing_zeros() / 8) as usize;
                if &hay[start..start + m] == needle {
                    return Some(start);
                }
                candidates &= candidates - 1;
            }
            if at == last {
                return None;
            }
            i += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn exact_match_without_wildcards() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "ab"));
        assert!(!like_match("ab", "abc"));
        assert!(like_match("", ""));
    }

    #[test]
    fn percent_wildcard() {
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "%o w%"));
        assert!(like_match("hello world", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "%z%"));
    }

    #[test]
    fn underscore_wildcard() {
        assert!(like_match("cat", "c_t"));
        assert!(!like_match("cart", "c_t"));
        assert!(like_match("cat", "___"));
        assert!(!like_match("cat", "____"));
    }

    #[test]
    fn tpch_style_patterns() {
        // Q13: o_comment not like '%special%requests%'
        assert!(like_match(
            "handle special packing requests carefully",
            "%special%requests%"
        ));
        assert!(!like_match("ordinary comment", "%special%requests%"));
        // Q16: p_type not like 'MEDIUM POLISHED%'
        assert!(like_match("MEDIUM POLISHED COPPER", "MEDIUM POLISHED%"));
        // Q9: p_name like '%green%'
        assert!(like_match("forest green metallic", "%green%"));
        // Q20: p_name like 'forest%'
        assert!(like_match("forest chocolate", "forest%"));
        assert!(!like_match("dark forest", "forest%"));
    }

    #[test]
    fn backtracking_cases() {
        assert!(like_match("aaab", "%ab"));
        assert!(like_match("abcabc", "%abc"));
        assert!(like_match("mississippi", "%iss%ippi"));
        assert!(!like_match("mississippi", "%iss%ippix"));
        assert!(like_match("abc", "a%b%c"));
    }

    #[test]
    fn multibyte_underscore() {
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("日本語", "__語"));
        assert!(!like_match("日本語", "_語"));
    }

    #[test]
    fn a_percent_in_the_text_leaves_the_pattern_percent_a_wildcard() {
        assert!(like_match("a%xc", "a%c"));
        assert!(like_match("100% sure", "%0%sure"));
        assert!(Matcher::new("a%c").matches("a%xc"));
    }

    #[test]
    fn matcher_anchors_its_first_and_last_pieces() {
        let m = Matcher::new("a%a");
        assert!(!m.matches("a") && m.matches("aa") && m.matches("abca"));
        assert!(!Matcher::new("ab%ba").matches("aba"));
        assert!(Matcher::new("%").matches("") && Matcher::new("%%").matches("x"));
        assert!(Matcher::new("").matches("") && !Matcher::new("").matches("x"));
        // Inner pieces past the first eight-byte window and at the tail.
        let text = "handle carefully the special deposits; requests";
        assert!(Matcher::new("%special%requests").matches(text));
        assert!(!Matcher::new("%requests%special%").matches(text));
    }

    /// Random text over `alphabet`, up to 40 characters long.
    fn text(rng: &mut TestRng, alphabet: &[char]) -> String {
        let len = rng.below(41) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }

    /// `Matcher` agrees with `like_match` on one random pattern (a `_` in
    /// one of four) over random texts, and over texts built to hold the
    /// pattern's pieces in order. The alphabets are small, with multibyte
    /// characters and the wildcard characters themselves, so pieces recur
    /// and overlap.
    fn matcher_case(seed: u64) {
        const LETTERS: [char; 5] = ['a', 'b', 'c', 'é', '日'];
        const TEXT: [char; 7] = ['a', 'b', 'c', 'é', '日', '%', '_'];
        const PATTERN: [char; 7] = ['a', 'b', 'c', 'é', '日', '%', '%'];
        let mut rng = TestRng::for_case(seed);
        let mut pattern: Vec<char> = text(&mut rng, &PATTERN).chars().collect();
        if rng.below(4) == 0 {
            pattern.insert(rng.below(pattern.len() as u64 + 1) as usize, '_');
        }
        let pattern: String = pattern.into_iter().collect();
        let matcher = Matcher::new(&pattern);
        let pieces: Vec<String> = pattern.split('%').map(|p| p.replace('_', "é")).collect();
        for _ in 0..8 {
            let texts = [
                text(&mut rng, &TEXT),
                pieces.join(&text(&mut rng, &LETTERS)),
            ];
            for t in &texts {
                assert_eq!(
                    matcher.matches(t),
                    like_match(t, &pattern),
                    "text {t:?}, pattern {pattern:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn matcher_agrees_with_like_match(seed in any::<u64>()) {
            matcher_case(seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        #[test]
        #[ignore = "long run: cargo test --release -p bfq-expr -- --ignored"]
        fn matcher_agrees_with_like_match_long(seed in any::<u64>()) {
            matcher_case(seed);
        }
    }
}
