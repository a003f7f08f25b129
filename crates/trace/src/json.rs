//! Minimal JSON tree, streaming writer, and parser.
//!
//! The workspace builds in a network-less environment, so it cannot pull in
//! `serde_json`; this module is the single JSON implementation shared by the
//! trace exporters, the conformance-checker round-trip tests, and the
//! `BENCH_*.json` metrics. Objects preserve insertion order so that exports
//! are byte-stable across runs — the determinism guard in `vopp-bench`
//! compares serialized traces verbatim.
//!
//! Every document is produced by one [`Writer`], which appends tokens to a
//! [`Sink`] as they are announced. The large exports (event stream,
//! Perfetto, critical path) drive it straight from their records; the small
//! artifacts build a [`Value`] tree first and [`Value::write`] walks it into
//! the same writer, so layout, number and string formatting have one source.

use std::fmt;
use std::io;

/// A parsed or under-construction JSON value.
///
/// Equality is JSON's: there is one number type, so `Int(2) == Num(2.0)`
/// (an integral float prints as `2` and reads back as `Int(2)`).
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range (RPC tags
    /// set bit 63). [`num`] builds it and the parser yields it for every
    /// integer token that fits.
    Int(u64),
    /// Any other JSON number: fractions, negatives, exponents.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered, duplicate keys are not merged.
    Obj(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Int(a), n @ Value::Num(_)) | (n @ Value::Num(_), Value::Int(a)) => {
                n.as_u64() == Some(*a)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (integers above 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_F64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Announce this tree to a [`Writer`], which decides the layout.
    pub fn write<S: Sink>(&self, w: &mut Writer<'_, S>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.u64(*n),
            Value::Num(n) => w.f64(*n),
            Value::Str(s) => w.str(s),
            Value::Arr(items) => {
                w.begin_arr();
                for v in items {
                    v.write(w);
                }
                w.end_arr();
            }
            Value::Obj(pairs) => {
                w.begin_obj();
                for (k, v) in pairs {
                    w.key(k);
                    v.write(w);
                }
                w.end_obj();
            }
        }
    }

    /// Compact serialization as a fresh `String`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut Writer::compact(&mut s));
        s
    }

    /// Serialization with two-space indentation and a trailing newline (for
    /// human-facing output) as a fresh `String`.
    pub fn to_json_pretty(&self) -> String {
        let mut s = String::new();
        let mut w = Writer::pretty(&mut s);
        self.write(&mut w);
        w.end_document();
        s
    }

    /// Parse a complete JSON document; trailing whitespace is permitted,
    /// trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Shorthand for an object literal from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Shorthand for an exact integer value.
pub fn num(n: u64) -> Value {
    Value::Int(n)
}

/// Shorthand for a string value.
pub fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Largest magnitude below which every integer is an exact `f64` (2^53).
const MAX_EXACT_F64: f64 = 9.007_199_254_740_992e15;

/// [`Writer::us`] makes its text from integers below this bound (2^50) and
/// goes through `f64` from it on. The integer text equals the `f64` one for
/// every value below 2^52; the margin keeps the bound clear of that edge.
pub const US_EXACT_BELOW: u64 = 1 << 50;

/// Containers a [`Writer`] can have open at once: one bit of `nonempty` each.
const MAX_DEPTH: usize = 64;

/// Containers [`Value::parse`] accepts open at once. The parser recurses
/// once per level, so an unbounded depth would let a small input overflow
/// the stack; every document a [`Writer`] emits stays within it.
const MAX_PARSE_DEPTH: usize = 2 * MAX_DEPTH;

/// One piece of a string written by [`Writer::str_parts`].
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    /// Text, escaped where JSON needs it.
    Text(&'a str),
    /// An integer's decimal digits.
    Int(u64),
}

/// Where a [`Writer`] appends its output.
pub trait Sink {
    /// Append `s`.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// A [`Sink`] over any [`io::Write`]. The first I/O error is kept and
/// everything after it discarded, so the emitting code stays free of error
/// plumbing; [`IoSink::finish`] reports it.
pub struct IoSink<W: io::Write> {
    out: W,
    err: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    /// Wrap `out`. Small writes go to it as they are: hand in a
    /// `BufWriter` when `out` is a file or a socket.
    pub fn new(out: W) -> Self {
        IoSink { out, err: None }
    }

    /// The first error any write met, if one did. Does not flush.
    pub fn finish(self) -> io::Result<()> {
        self.err.map_or(Ok(()), Err)
    }
}

impl<W: io::Write> Sink for IoSink<W> {
    #[inline]
    fn put(&mut self, s: &str) {
        if self.err.is_none() {
            self.err = self.out.write_all(s.as_bytes()).err();
        }
    }
}

/// Streaming JSON writer: the caller announces tokens in document order and
/// the writer places separators, indentation and escapes. Nothing is
/// buffered and nothing allocated, so a document's cost is its bytes.
///
/// Two layouts: [`Writer::compact`] has no whitespace; [`Writer::pretty`]
/// puts each member on its own line behind two spaces per level and keeps
/// empty containers as `[]` / `{}`. Calls must nest properly (one value per
/// key, every `begin_*` closed); the writer does not check.
pub struct Writer<'a, S: Sink> {
    out: &'a mut S,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// Bit `d`: the container open at depth `d` already holds a member.
    nonempty: u64,
    /// A key was just written; the next value belongs to it.
    after_key: bool,
}

impl<'a, S: Sink> Writer<'a, S> {
    /// A writer of the whitespace-free layout.
    pub fn compact(out: &'a mut S) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            nonempty: 0,
            after_key: false,
        }
    }

    /// A writer of the indented layout.
    pub fn pretty(out: &'a mut S) -> Self {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    fn newline(&mut self) {
        // A line break and two spaces per open container (up to
        // `MAX_DEPTH` of them), in one piece.
        const BREAK: &str = concat!(
            "\n                                                                ",
            "                                                                "
        );
        self.out.put(&BREAK[..1 + 2 * self.depth]);
    }

    /// Separate the token about to be written from what precedes it.
    fn before_token(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        let bit = 1u64 << self.depth;
        if self.nonempty & bit != 0 {
            self.out.put(",");
        }
        self.nonempty |= bit;
        if self.pretty {
            self.newline();
        }
    }

    fn open(&mut self, bracket: &str) {
        self.before_token();
        self.out.put(bracket);
        self.depth += 1;
        assert!(self.depth < MAX_DEPTH, "JSON nested deeper than tracked");
        self.nonempty &= !(1u64 << self.depth);
    }

    fn close(&mut self, bracket: &str) {
        let had_members = self.nonempty & (1u64 << self.depth) != 0;
        self.depth -= 1;
        if self.pretty && had_members {
            self.newline();
        }
        self.out.put(bracket);
    }

    /// Open an object; follow with `key` + value pairs and [`Writer::end_obj`].
    pub fn begin_obj(&mut self) {
        self.open("{");
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) {
        self.close("}");
    }

    /// Open an array; follow with values and [`Writer::end_arr`].
    pub fn begin_arr(&mut self) {
        self.open("[");
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) {
        self.close("]");
    }

    /// An object member whose text needs no escapes, in its compact form
    /// behind a comma: `,"key":` when a value follows, `,"key":value` for a
    /// whole member. The key holds no `:`. The comma is dropped before an
    /// object's first member, and the pretty layout places the member as
    /// [`Writer::key`] would; either way the compact text is one append.
    pub fn member(&mut self, lit: &str) {
        debug_assert!(lit.starts_with(",\"") && self.depth > 0 && !self.after_key);
        let bit = 1u64 << self.depth;
        let first = self.nonempty & bit == 0;
        self.nonempty |= bit;
        if self.pretty {
            if !first {
                self.out.put(",");
            }
            self.newline();
            let (key, value) = lit[1..]
                .split_once(':')
                .expect("a member literal has a ':'");
            self.out.put(key);
            self.out.put(": ");
            self.out.put(value);
        } else {
            self.out.put(&lit[usize::from(first)..]);
        }
        self.after_key = lit.ends_with(':');
    }

    /// The key of the next object member.
    pub fn key(&mut self, k: &str) {
        self.before_token();
        self.out.put("\"");
        put_escaped(self.out, k);
        self.out.put(if self.pretty { "\": " } else { "\":" });
        self.after_key = true;
    }

    /// `null`.
    pub fn null(&mut self) {
        self.before_token();
        self.out.put("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.before_token();
        self.out.put(if b { "true" } else { "false" });
    }

    /// An integer, every digit exact.
    pub fn u64(&mut self, n: u64) {
        self.before_token();
        put_u64(self.out, n);
    }

    /// Virtual nanoseconds as the microseconds Chrome trace events carry:
    /// the text [`Writer::f64`] gives `t_ns as f64 / 1000.0`, made from
    /// integers. Below [`US_EXACT_BELOW`] that text is the whole part, then
    /// (unless zero) a point and the three-digit remainder without its
    /// trailing zeros: the quotient is within a quarter of a thousandth of
    /// the exact one there, so no shorter decimal reads back as the same
    /// `f64`. Larger values take the `f64` path.
    pub fn us(&mut self, t_ns: u64) {
        if t_ns >= US_EXACT_BELOW {
            return self.f64(t_ns as f64 / 1000.0);
        }
        self.before_token();
        let (whole, mut frac) = (t_ns / 1000, t_ns % 1000);
        let mut buf = [0u8; 24];
        let mut at = buf.len();
        if frac != 0 {
            let mut digits = 3;
            while frac % 10 == 0 {
                frac /= 10;
                digits -= 1;
            }
            for _ in 0..digits {
                at -= 1;
                buf[at] = b'0' + (frac % 10) as u8;
                frac /= 10;
            }
            at -= 1;
            buf[at] = b'.';
        }
        let start = digits_into(&mut buf[..at], whole);
        self.out
            .put(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
    }

    /// A float. Integral values up to 2^53 print as integers, the rest in
    /// Rust's shortest round-trip form; JSON has no NaN/Inf, so those (which
    /// the tracer never produces) become `null`.
    pub fn f64(&mut self, n: f64) {
        self.before_token();
        if n.fract() == 0.0 && n.abs() <= MAX_EXACT_F64 {
            let i = n as i64;
            if i < 0 {
                self.out.put("-");
            }
            put_u64(self.out, i.unsigned_abs());
        } else if n.is_finite() {
            let _ = fmt::write(&mut Escaped(self.out), format_args!("{n}"));
        } else {
            self.out.put("null");
        }
    }

    /// A string.
    pub fn str(&mut self, s: &str) {
        self.before_token();
        self.out.put("\"");
        put_escaped(self.out, s);
        self.out.put("\"");
    }

    /// A string given in pieces: text, escaped as needed, and integers.
    pub fn str_parts(&mut self, parts: &[Part<'_>]) {
        self.before_token();
        self.out.put("\"");
        for part in parts {
            match *part {
                Part::Text(s) => put_escaped(self.out, s),
                Part::Int(n) => put_u64(self.out, n),
            }
        }
        self.out.put("\"");
    }

    /// `key` followed by an integer.
    pub fn field_u64(&mut self, key: &str, n: u64) {
        self.key(key);
        self.u64(n);
    }

    /// `key` followed by a string.
    pub fn field_str(&mut self, key: &str, s: &str) {
        self.key(key);
        self.str(s);
    }

    /// The newline that ends a pretty document.
    pub fn end_document(&mut self) {
        self.out.put("\n");
    }
}

/// The two digits of every number below 100, in order.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `n`'s decimal digits at the end of `buf` (two at a time) and return
/// where they start. `buf` must hold them: u64::MAX has 20.
fn digits_into(buf: &mut [u8], mut n: u64) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

fn put_u64(out: &mut impl Sink, n: u64) {
    let mut buf = [0u8; 20];
    let at = digits_into(&mut buf, n);
    out.put(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `s` with JSON string escapes, copying each run between two
/// characters that need one in a single piece.
fn put_escaped(out: &mut impl Sink, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        // Multi-byte UTF-8 is all >= 0x80, so `i` is a char boundary.
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.put(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            _ => {
                let hex = [HEX[(b >> 4) as usize], HEX[(b & 0xf) as usize]];
                out.put("\\u00");
                out.put(std::str::from_utf8(&hex).expect("ASCII hex digits"));
            }
        }
    }
    out.put(&s[run_start..]);
}

/// `fmt::Write` over a sink that escapes what passes through it.
struct Escaped<'a, S: Sink>(&'a mut S);

impl<S: Sink> fmt::Write for Escaped<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        put_escaped(self.0, s);
        Ok(())
    }
}

/// Error from [`Value::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one container with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_PARSE_DEPTH {
            let msg = format!("containers nested deeper than {MAX_PARSE_DEPTH}");
            return Err(self.err(&msg));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: the writer never emits them,
                            // but accept them for external traces.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        // An all-digit token that fits is kept exact: `u64::from_str` turns
        // down '-', a fraction, an exponent and anything past u64::MAX.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&deep(MAX_PARSE_DEPTH)).is_ok());
        let err = Value::parse(&deep(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // A megabyte of open containers is an error, not a stack overflow.
        assert!(Value::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Value::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = obj(vec![
            ("name", str("trace")),
            ("n", num(12345)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("items", Value::Arr(vec![num(1), num(2), str("x")])),
        ]);
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), v);
        let pretty = v.to_json_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{0001}é".to_string());
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(
            Value::parse("\"\\u00e9\"").unwrap(),
            Value::Str("é".to_string())
        );
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".to_string())
        );
    }

    #[test]
    fn numbers_round_trip() {
        // Every u64 is exact, the RPC tags (bit 63 set) included.
        for n in [
            0u64,
            1,
            42,
            1_000_000_000_000,
            (1 << 53) + 1,
            1 << 63 | 5,
            u64::MAX,
        ] {
            let text = num(n).to_json();
            assert_eq!(text, n.to_string());
            assert_eq!(Value::parse(&text).unwrap(), Value::Int(n));
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(n));
        }
        let v = Value::parse("-1.5e3").unwrap();
        assert_eq!(v.as_f64(), Some(-1500.0));
        assert_eq!(v.as_u64(), None);
        // Integer tokens that do not fit u64 stay floats.
        assert_eq!(
            Value::parse("18446744073709551616").unwrap(),
            Value::Num(18_446_744_073_709_551_616.0)
        );
        assert_eq!(Value::parse("-7").unwrap(), Value::Num(-7.0));
        // An integral float prints as an integer and reads back as one.
        assert_eq!(Value::Num(2.0).to_json(), "2");
        assert_eq!(Value::Num(-0.0).to_json(), "0");
        assert_eq!(Value::Num(-3.0).to_json(), "-3");
        assert_eq!(Value::parse("2").unwrap().as_f64(), Some(2.0));
        assert_eq!(Value::parse("2").unwrap(), Value::Num(2.0));
        assert_ne!(Value::parse("2").unwrap(), Value::Num(2.5));
        assert_ne!(num(u64::MAX), Value::Num(u64::MAX as f64));
        assert_eq!(Value::Num(0.1 + 0.2).to_json(), "0.30000000000000004");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn both_layouts_are_pinned() {
        let v = obj(vec![
            ("a", num(1)),
            ("empty", Value::Arr(vec![])),
            ("o", obj(vec![("none", obj(vec![])), ("s", str("x\"y"))])),
            ("l", Value::Arr(vec![Value::Null, Value::Arr(vec![num(2)])])),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"a":1,"empty":[],"o":{"none":{},"s":"x\"y"},"l":[null,[2]]}"#
        );
        let pretty = r#"{
  "a": 1,
  "empty": [],
  "o": {
    "none": {},
    "s": "x\"y"
  },
  "l": [
    null,
    [
      2
    ]
  ]
}
"#;
        assert_eq!(v.to_json_pretty(), pretty);
    }

    #[test]
    fn writer_streams_without_a_tree() {
        let mut s = String::new();
        let mut w = Writer::compact(&mut s);
        w.begin_obj();
        w.member(r#","n":"#);
        w.u64(u64::MAX);
        w.key("us");
        w.f64(1.5);
        w.member(r#","ok":true"#);
        w.key("name");
        w.str_parts(&[Part::Text("v"), Part::Int(3), Part::Text(" \"q\n\"")]);
        w.key("items");
        w.begin_arr();
        w.null();
        w.str("é\u{1}");
        w.end_arr();
        w.end_obj();
        assert_eq!(
            s,
            r#"{"n":18446744073709551615,"us":1.5,"ok":true,"name":"v3 \"q\n\"","items":[null,"é\u0001"]}"#
        );

        let mut bytes = Vec::new();
        let mut sink = IoSink::new(&mut bytes);
        Writer::compact(&mut sink).str("a\\b");
        sink.finish().expect("Vec write");
        assert_eq!(bytes, br#""a\\b""#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("true false").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }
}
