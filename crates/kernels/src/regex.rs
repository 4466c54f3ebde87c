//! Thompson-NFA regular expression engine: the Personal Information
//! Redaction pipeline's scanning kernel.
//!
//! Supports the subset PII patterns need: literals, `.`, character
//! classes `[a-z0-9]` (with ranges and negation), `*`, `+`, `?`,
//! alternation `|`, grouping `(...)`, and `\d \w \s` escapes. Matching
//! is a breadth-first NFA simulation (no backtracking), linear in input
//! size — the same streaming behaviour an FPGA regex accelerator has.

use std::fmt;

/// Regex compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte position in the pattern.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for RegexError {}

#[derive(Debug, Clone)]
enum ClassItem {
    Byte(u8),
    Range(u8, u8),
}

#[derive(Debug, Clone)]
enum Node {
    /// Matches one byte if the predicate holds.
    Byte {
        items: Vec<ClassItem>,
        negated: bool,
        next: usize,
    },
    /// Matches any byte.
    Any { next: usize },
    /// Epsilon split.
    Split { a: usize, b: usize },
    /// Plain epsilon transition (a single dangling exit).
    Eps { next: usize },
    /// Accept state.
    Accept,
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    nodes: Vec<Node>,
    start: usize,
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
    nodes: Vec<Node>,
}

/// A fragment: entry state plus the dangling exits to patch.
#[derive(Debug, Clone)]
struct Frag {
    start: usize,
    outs: Vec<usize>, // node indices whose `next`/split targets dangle
}

const DANGLE: usize = usize::MAX;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, RegexError> {
        Err(RegexError {
            pos: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn push(&mut self, n: Node) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    fn patch(&mut self, outs: &[usize], target: usize) {
        for &o in outs {
            match &mut self.nodes[o] {
                Node::Byte { next, .. } | Node::Any { next } => {
                    if *next == DANGLE {
                        *next = target;
                    }
                }
                Node::Split { a, b } => {
                    if *a == DANGLE {
                        *a = target;
                    } else if *b == DANGLE {
                        *b = target;
                    }
                }
                Node::Eps { next } => {
                    if *next == DANGLE {
                        *next = target;
                    }
                }
                Node::Accept => {}
            }
        }
    }

    /// alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<Frag, RegexError> {
        let mut frag = self.concat()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let rhs = self.concat()?;
            let split = self.push(Node::Split {
                a: frag.start,
                b: rhs.start,
            });
            let mut outs = frag.outs;
            outs.extend(rhs.outs);
            frag = Frag { start: split, outs };
        }
        Ok(frag)
    }

    /// concat := repeat*
    fn concat(&mut self) -> Result<Frag, RegexError> {
        let mut frags: Vec<Frag> = Vec::new();
        while let Some(c) = self.peek() {
            if c == b'|' || c == b')' {
                break;
            }
            frags.push(self.repeat()?);
        }
        match frags.len() {
            0 => {
                // Empty pattern piece: one epsilon with one dangling exit.
                let s = self.push(Node::Eps { next: DANGLE });
                Ok(Frag {
                    start: s,
                    outs: vec![s],
                })
            }
            _ => {
                let mut iter = frags.into_iter();
                let mut acc = iter.next().expect("nonempty");
                for next in iter {
                    self.patch(&acc.outs, next.start);
                    acc = Frag {
                        start: acc.start,
                        outs: next.outs,
                    };
                }
                Ok(acc)
            }
        }
    }

    /// repeat := atom ('*' | '+' | '?')?
    fn repeat(&mut self) -> Result<Frag, RegexError> {
        let atom = self.atom()?;
        match self.peek() {
            Some(b'*') => {
                self.bump();
                let split = self.push(Node::Split {
                    a: atom.start,
                    b: DANGLE,
                });
                self.patch(&atom.outs, split);
                Ok(Frag {
                    start: split,
                    outs: vec![split],
                })
            }
            Some(b'+') => {
                self.bump();
                let split = self.push(Node::Split {
                    a: atom.start,
                    b: DANGLE,
                });
                self.patch(&atom.outs, split);
                Ok(Frag {
                    start: atom.start,
                    outs: vec![split],
                })
            }
            Some(b'?') => {
                self.bump();
                let split = self.push(Node::Split {
                    a: atom.start,
                    b: DANGLE,
                });
                let mut outs = atom.outs;
                outs.push(split);
                Ok(Frag { start: split, outs })
            }
            _ => Ok(atom),
        }
    }

    /// atom := '(' alternation ')' | class | escape | '.' | literal
    fn atom(&mut self) -> Result<Frag, RegexError> {
        match self.bump() {
            None => self.err("unexpected end of pattern"),
            Some(b'(') => {
                let inner = self.alternation()?;
                if self.bump() != Some(b')') {
                    return self.err("expected `)`");
                }
                Ok(inner)
            }
            Some(b'[') => {
                let negated = if self.peek() == Some(b'^') {
                    self.bump();
                    true
                } else {
                    false
                };
                let mut items = Vec::new();
                loop {
                    match self.bump() {
                        None => return self.err("unterminated class"),
                        Some(b']') => break,
                        Some(b'\\') => {
                            let e = self.bump().ok_or(RegexError {
                                pos: self.pos,
                                message: "dangling escape".into(),
                            })?;
                            items.extend(escape_items(e));
                        }
                        Some(c) => {
                            if self.peek() == Some(b'-')
                                && self.pat.get(self.pos + 1).is_some_and(|&n| n != b']')
                            {
                                self.bump(); // '-'
                                let hi = self.bump().expect("checked");
                                if hi < c {
                                    return self.err("inverted range");
                                }
                                items.push(ClassItem::Range(c, hi));
                            } else {
                                items.push(ClassItem::Byte(c));
                            }
                        }
                    }
                }
                let n = self.push(Node::Byte {
                    items,
                    negated,
                    next: DANGLE,
                });
                Ok(Frag {
                    start: n,
                    outs: vec![n],
                })
            }
            Some(b'.') => {
                let n = self.push(Node::Any { next: DANGLE });
                Ok(Frag {
                    start: n,
                    outs: vec![n],
                })
            }
            Some(b'\\') => {
                let e = self.bump().ok_or(RegexError {
                    pos: self.pos,
                    message: "dangling escape".into(),
                })?;
                let items = escape_items(e);
                let n = self.push(Node::Byte {
                    items,
                    negated: false,
                    next: DANGLE,
                });
                Ok(Frag {
                    start: n,
                    outs: vec![n],
                })
            }
            Some(c @ (b'*' | b'+' | b'?' | b')')) => {
                self.pos -= 1;
                self.err(format!("unexpected `{}`", c as char))
            }
            Some(c) => {
                let n = self.push(Node::Byte {
                    items: vec![ClassItem::Byte(c)],
                    negated: false,
                    next: DANGLE,
                });
                Ok(Frag {
                    start: n,
                    outs: vec![n],
                })
            }
        }
    }
}

fn escape_items(e: u8) -> Vec<ClassItem> {
    match e {
        b'd' => vec![ClassItem::Range(b'0', b'9')],
        b'w' => vec![
            ClassItem::Range(b'a', b'z'),
            ClassItem::Range(b'A', b'Z'),
            ClassItem::Range(b'0', b'9'),
            ClassItem::Byte(b'_'),
        ],
        b's' => vec![
            ClassItem::Byte(b' '),
            ClassItem::Byte(b'\t'),
            ClassItem::Byte(b'\n'),
            ClassItem::Byte(b'\r'),
        ],
        other => vec![ClassItem::Byte(other)],
    }
}

fn class_matches(items: &[ClassItem], negated: bool, byte: u8) -> bool {
    let hit = items.iter().any(|i| match i {
        ClassItem::Byte(b) => *b == byte,
        ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&byte),
    });
    hit != negated
}

impl Regex {
    /// Compiles a pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`RegexError`] with the offending position.
    ///
    /// ```
    /// use dmx_kernels::regex::Regex;
    /// let re = Regex::new(r"\d\d\d-\d\d-\d\d\d\d").unwrap(); // SSN-ish
    /// assert!(re.find(b"id 123-45-6789 end").is_some());
    /// ```
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let mut p = Parser {
            pat: pattern.as_bytes(),
            pos: 0,
            nodes: Vec::new(),
        };
        let frag = p.alternation()?;
        if p.pos != p.pat.len() {
            return p.err("trailing characters");
        }
        let accept = p.push(Node::Accept);
        p.patch(&frag.outs, accept);
        // Any still-dangling exits (empty alternations) also accept.
        for n in &mut p.nodes {
            match n {
                Node::Byte { next, .. } | Node::Any { next } => {
                    if *next == DANGLE {
                        *next = accept;
                    }
                }
                Node::Split { a, b } => {
                    if *a == DANGLE {
                        *a = accept;
                    }
                    if *b == DANGLE {
                        *b = accept;
                    }
                }
                Node::Eps { next } => {
                    if *next == DANGLE {
                        *next = accept;
                    }
                }
                Node::Accept => {}
            }
        }
        Ok(Regex {
            nodes: p.nodes,
            start: frag.start,
        })
    }

    fn add_state(&self, state: usize, set: &mut Vec<usize>, on: &mut [bool]) {
        if on[state] {
            return;
        }
        on[state] = true;
        match self.nodes[state] {
            Node::Split { a, b } => {
                self.add_state(a, set, on);
                self.add_state(b, set, on);
            }
            Node::Eps { next } => self.add_state(next, set, on),
            _ => set.push(state),
        }
    }

    /// Finds the leftmost match starting at each position (first match
    /// wins); returns `(start, end)` byte offsets or `None`.
    pub fn find(&self, haystack: &[u8]) -> Option<(usize, usize)> {
        self.find_at(haystack, 0)
    }

    /// Finds the leftmost match at or after `from`.
    pub(crate) fn find_at(&self, haystack: &[u8], from: usize) -> Option<(usize, usize)> {
        for start in from..=haystack.len() {
            if let Some(end) = self.match_end(haystack, start) {
                return Some((start, end));
            }
        }
        None
    }

    /// Longest match anchored at `start`, if any.
    fn match_end(&self, haystack: &[u8], start: usize) -> Option<usize> {
        let mut current: Vec<usize> = Vec::new();
        let mut on = vec![false; self.nodes.len()];
        self.add_state(self.start, &mut current, &mut on);
        let mut best: Option<usize> = None;
        let mut pos = start;
        loop {
            if current
                .iter()
                .any(|&s| matches!(self.nodes[s], Node::Accept))
            {
                best = Some(pos);
            }
            if pos >= haystack.len() || current.is_empty() {
                break;
            }
            let byte = haystack[pos];
            let mut next: Vec<usize> = Vec::new();
            let mut on2 = vec![false; self.nodes.len()];
            for &s in &current {
                match &self.nodes[s] {
                    Node::Byte {
                        items,
                        negated,
                        next: n,
                    } if class_matches(items, *negated, byte) => {
                        self.add_state(*n, &mut next, &mut on2);
                    }
                    Node::Any { next: n } => {
                        self.add_state(*n, &mut next, &mut on2);
                    }
                    _ => {}
                }
            }
            current = next;
            pos += 1;
        }
        best
    }

    /// Replaces every non-overlapping match with `mask` bytes of the
    /// same length (the "redact with blanks" step of Personal Info
    /// Redaction). Returns the redacted text and the match count.
    pub fn redact(&self, text: &[u8], mask: u8) -> (Vec<u8>, usize) {
        let mut out = text.to_vec();
        let mut count = 0;
        let mut pos = 0;
        while let Some((s, e)) = self.find_at(text, pos) {
            if e == s {
                // Zero-length match: avoid an infinite loop.
                pos = s + 1;
                continue;
            }
            for b in &mut out[s..e] {
                *b = mask;
            }
            count += 1;
            pos = e;
        }
        (out, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert_eq!(re.find(b"xxabcxx"), Some((2, 5)));
        assert_eq!(re.find(b"xxabx"), None);
    }

    #[test]
    fn classes_and_ranges() {
        let re = Regex::new("[a-c]x[0-9]").unwrap();
        assert!(re.find(b"bx7").is_some());
        assert!(re.find(b"dx7").is_none());
        let neg = Regex::new("[^0-9]").unwrap();
        assert!(neg.find(b"7a").map(|(s, _)| s) == Some(1));
    }

    #[test]
    fn star_plus_question() {
        let re = Regex::new("ab*c").unwrap();
        assert!(re.find(b"ac").is_some());
        assert!(re.find(b"abbbbc").is_some());
        let re = Regex::new("ab+c").unwrap();
        assert!(re.find(b"ac").is_none());
        assert!(re.find(b"abc").is_some());
        let re = Regex::new("ab?c").unwrap();
        assert!(re.find(b"ac").is_some());
        assert!(re.find(b"abc").is_some());
        assert!(re.find(b"abbc").is_none());
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(cat|dog)s?").unwrap();
        // longest match: "dogs" at bytes 3..7
        assert_eq!(re.find(b"hotdogs!"), Some((3, 7)));
        assert_eq!(re.find(b"a cat."), Some((2, 5)));
    }

    #[test]
    fn longest_match_at_position() {
        let re = Regex::new("a+").unwrap();
        assert_eq!(re.find(b"baaa"), Some((1, 4)));
    }

    #[test]
    fn ssn_pattern() {
        let re = Regex::new(r"\d\d\d-\d\d-\d\d\d\d").unwrap();
        let (redacted, n) = re.redact(b"ssn: 123-45-6789, other 987-65-4321.", b'#');
        assert_eq!(n, 2);
        assert_eq!(&redacted, b"ssn: ###########, other ###########.");
    }

    #[test]
    fn email_like_pattern() {
        let re = Regex::new(r"\w+@\w+\.\w+").unwrap();
        let (red, n) = re.redact(b"mail bob@example.com now", b'*');
        assert_eq!(n, 1);
        assert_eq!(&red, b"mail *************** now");
    }

    #[test]
    fn dot_matches_anything() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.find(b"a7c").is_some());
        assert!(re.find(b"abc").is_some());
    }

    #[test]
    fn parse_errors_have_positions() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        let e = Regex::new("a)").unwrap_err();
        assert!(e.to_string().contains("regex error"));
    }

    #[test]
    fn empty_alternative_is_allowed() {
        let re = Regex::new("a(b|)c").unwrap();
        assert!(re.find(b"ac").is_some());
        assert!(re.find(b"abc").is_some());
    }

    #[test]
    fn redaction_preserves_length() {
        let re = Regex::new(r"\d+").unwrap();
        let text = b"a1bb22ccc333".to_vec();
        let (red, n) = re.redact(&text, b'_');
        assert_eq!(n, 3);
        assert_eq!(red.len(), text.len());
        assert_eq!(&red, b"a_bb__ccc___");
    }
}
