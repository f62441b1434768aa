//! Typed request/response bodies and the hand-rolled JSON layer.
//!
//! Encoding is exact and minimal (the few shapes the API returns);
//! decoding is a small recursive-descent parser that is *tolerant* in the
//! HTTP sense — unknown fields are ignored, field order is free, and
//! whitespace is insignificant — but strict about JSON grammar itself, so
//! a malformed body is always a clean 400 rather than a partial parse.
//! Numbers follow RFC 8259 §6 exactly (`01`, `1.` and `-01` are refused).
//!
//! `POST /ingest` bodies skip the [`JsonValue`] tree: [`IngestRequest::decode`]
//! walks the document once and turns each key's digits into a `u64` as it
//! reads them. The `items` array is read a word at a time: one 8-byte load
//! finds a key of up to 7 digits and the `,` or `]` after it, and three
//! multiplies convert the digits (the SWAR digit parsing of Langdale &
//! Lemire, "Parsing Gigabytes of JSON per Second", VLDB J. 2019). Any
//! other element falls back, for that element only, to the byte-wise
//! element step, so grammar, error messages and the `[0, 2^53]` exactness
//! rule are those of the general parser.

use std::collections::BTreeMap;

/// Maximum nesting depth the decoder accepts (the API's types need 3).
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (decoded as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, field order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field by name.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integral number no larger than 2^53.
    ///
    /// The `f64` has already rounded the source text, so a token above
    /// 2^53 can come back as a different integer (`9007199254740993` reads
    /// as `9007199254740992`); exact keys come from [`IngestRequest::decode`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Why a body failed to decode; the payload is the 400 message.
#[derive(Debug, PartialEq, Eq)]
pub struct JsonError(pub &'static str);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing garbage is rejected).
///
/// # Errors
///
/// [`JsonError`] naming the first grammar violation.
pub fn parse_json(input: &[u8]) -> Result<JsonValue, JsonError> {
    let mut parser = Parser::new(input)?;
    let value = parser.value(0)?;
    parser.finish()?;
    Ok(value)
}

/// The largest key `POST /ingest` accepts: every integer up to 2^53 is an
/// exact `f64`, so `/topk` echoes it and [`decode_topk`] reads it back
/// unchanged.
const MAX_ITEM: u64 = 1 << 53;

/// `b'0'` in every byte of a word: `^` turns ASCII digits into their values.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first token of `input`, which must be UTF-8.
    fn new(input: &'a [u8]) -> Result<Self, JsonError> {
        let text = std::str::from_utf8(input).map_err(|_| JsonError("body is not utf-8"))?;
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        Ok(parser)
    }

    /// Rejects anything but whitespace after the document.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError("trailing characters after document"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(value)
        } else {
            Err(JsonError("bad literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", JsonValue::Null),
            Some(b't') => self.eat("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.elements(|parser| {
            items.push(parser.value(depth + 1)?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// Walks an array from its `[` through its `]`, calling `element` at
    /// each element, which must consume it.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        let mut fields = Vec::new();
        self.fields(|parser, name| {
            fields.push((name, parser.value(depth + 1)?));
            Ok(())
        })?;
        Ok(JsonValue::Object(fields))
    }

    /// Walks an object from its `{` through its `}`, handing each field
    /// name to `field`, which must consume the field's value.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(JsonError("expected a field name"));
            }
            let name = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(JsonError("expected ':' after field name"));
            }
            self.pos += 1;
            self.skip_ws();
            field(self, name)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads the top-level `items` value straight into keys, without a
    /// [`JsonValue`] per element.
    ///
    /// Each element is first tried with the word step ([`Self::word_key`]):
    /// one 8-byte load that takes a key of 1–7 digits together with the
    /// `,` or `]` after it. Any other element (whitespace before its
    /// separator, 8 or more digits, a sign, fraction or exponent, a nested
    /// value, bad grammar) falls back, for that element only, to the
    /// element step: [`Self::key`], then `value` if that fails, then the
    /// separator; the next element is tried with the word step again. Both
    /// steps skip whitespace after a `,`, so `, ` separators stay on the
    /// word step.
    ///
    /// The outer error is a grammar error and ends the parse. The inner one
    /// is the semantic error (not an array, or an element that is not a key)
    /// that the caller reports only if the rest of the document parses.
    fn items(&mut self) -> Result<Result<Vec<u64>, JsonError>, JsonError> {
        if self.peek() != Some(b'[') {
            self.value(1)?;
            return Ok(Err(JsonError("'items' must be an array")));
        }
        // Every key but the last is followed by a `,`, so one slot per `,`
        // left in the body plus one is never short.
        let mut keys = Vec::with_capacity(count_commas(&self.bytes[self.pos..]) + 1);
        let mut all_keys = true;
        self.pos += 1; // '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Ok(keys));
        }
        while !self.word_keys(&mut keys) {
            match self.key() {
                Some(key) => keys.push(key),
                None => {
                    // Same depth as an element of a parsed `items` array,
                    // so grammar errors read as `parse_json`'s.
                    self.value(2)?;
                    all_keys = false;
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(JsonError("expected ',' or ']' in array")),
            }
            self.skip_ws();
        }
        Ok(if all_keys {
            Ok(keys)
        } else {
            Err(JsonError("items must be unsigned integers"))
        })
    }

    /// Runs the word step while it applies, pushing each key it takes and
    /// moving past its separator and any whitespace after a `,`. Returns
    /// `true` once it has consumed the array's `]`, and `false` with the
    /// cursor at the first element the word step cannot take.
    fn word_keys(&mut self, keys: &mut Vec<u64>) -> bool {
        while let Some((key, separator)) = self.word_key() {
            keys.push(key);
            self.pos += 1;
            if separator == b']' {
                return true;
            }
            self.skip_ws();
        }
        false
    }

    /// The word step: reads the 8 bytes at the cursor as one little-endian
    /// word (zero-padded past the end of the body) and, if they start with
    /// a key of 1–7 digits and no leading zero followed by `,` or `]`,
    /// moves the cursor to that separator and returns the key and the
    /// separator. Leaves the cursor in place and returns `None` otherwise.
    fn word_key(&mut self) -> Option<(u64, u8)> {
        let word = load_word(&self.bytes[self.pos..]);
        let len = digit_run(word);
        if !(1..8).contains(&len) || (len > 1 && word as u8 == b'0') {
            return None;
        }
        let separator = (word >> (8 * len)) as u8;
        if separator != b',' && separator != b']' {
            return None;
        }
        self.pos += len;
        Some((
            digits_value((word ^ ASCII_ZEROS) << (64 - 8 * len)),
            separator,
        ))
    }

    /// Consumes a bare JSON integer in `[0, 2^53]` — `0` or `[1-9][0-9]*`,
    /// with no sign, fraction or exponent — and returns it exactly. Leaves
    /// the cursor in place and returns `None` for any other token.
    fn key(&mut self) -> Option<u64> {
        let rest = &self.bytes[self.pos..];
        // The digit run, a word at a time. The zero padding past the end of
        // the body is never a digit, so `len` stays within `rest`.
        let mut len = 0;
        loop {
            let run = digit_run(load_word(&rest[len..]));
            len += run;
            if run < 8 || len > 16 {
                break;
            }
        }
        let leading_zero = len > 1 && rest[0] == b'0';
        let continues = matches!(rest.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        // 2^53 has 16 digits, so a longer run is never a key, and a run of
        // at most 16 digits cannot overflow.
        if len == 0 || len > 16 || leading_zero || continues {
            return None;
        }
        // Leading digits one at a time, then whole words of eight.
        let (head, words) = rest[..len].split_at(len % 8);
        let mut key = head
            .iter()
            .fold(0, |key, &digit| key * 10 + u64::from(digit - b'0'));
        for word in words.chunks_exact(8) {
            key = key * 100_000_000 + digits_value(load_word(word) ^ ASCII_ZEROS);
        }
        if key > MAX_ITEM {
            return None;
        }
        self.pos += len;
        Some(key)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or(JsonError("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or(JsonError("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone also takes a leading `+`.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(JsonError("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the API's
                            // ASCII-keyed payloads; reject rather than
                            // mis-decode.
                            out.push(char::from_u32(hex).ok_or(JsonError("surrogate \\u escape"))?);
                        }
                        _ => return Err(JsonError("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: already validated by the str cast.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or(JsonError("bad utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text = &self.bytes[start..self.pos];
        if !is_json_number(text) {
            return Err(JsonError("bad number"));
        }
        let text = std::str::from_utf8(text).expect("ascii slice");
        let n: f64 = text.parse().map_err(|_| JsonError("bad number"))?;
        if !n.is_finite() {
            return Err(JsonError("non-finite number"));
        }
        Ok(JsonValue::Number(n))
    }
}

/// Whether `text` is a JSON number (RFC 8259 §6):
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    fn digits(s: &[u8]) -> usize {
        s.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let mut rest = text.strip_prefix(b"-").unwrap_or(text);
    rest = match rest.first() {
        Some(b'0') => &rest[1..],
        Some(b'1'..=b'9') => &rest[digits(rest)..],
        _ => return false,
    };
    if let Some(fraction) = rest.strip_prefix(b".") {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = &fraction[n..];
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exponent = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = &exponent[n..];
    }
    rest.is_empty()
}

/// How many `,` bytes `bytes` holds. Each block of 255 bytes is summed in
/// a `u8`, which cannot overflow, so the compiler vectorizes the count; a
/// plain `filter().count()` into a `usize` did not vectorize as well.
fn count_commas(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|block| block.iter().map(|&b| u8::from(b == b',')).sum::<u8>() as usize)
        .sum()
}

/// The 8 bytes at the start of `bytes` as a little-endian word, padded
/// with zero bytes past its end.
fn load_word(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => {
            let mut padded = [0u8; 8];
            padded[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(padded)
        }
    }
}

/// How many of the bytes of `word`, lowest first, are ASCII digits before
/// the first one that is not (8 if all are).
fn digit_run(word: u64) -> usize {
    // A digit byte becomes its value 0..=9; adding 0x76 sets bit 7 of
    // every byte that was ≥ 10, and the `|` catches the bytes ≥ 0x80 whose
    // sum wrapped. Only a non-digit byte carries into the next one, so
    // every byte up to the first non-digit reads true.
    let values = word ^ ASCII_ZEROS;
    let stops = (values.wrapping_add(0x7676_7676_7676_7676) | values) & 0x8080_8080_8080_8080;
    (stops.trailing_zeros() / 8) as usize
}

/// The number whose eight decimal digits are the bytes of `digits`, most
/// significant in the lowest byte, each already a value `0..=9`: one
/// multiply forms the two-digit pairs, two more combine them. At most
/// 99 999 999.
fn digits_value(digits: u64) -> u64 {
    const LOW_OF_EACH_HALF: u64 = 0x0000_00ff_0000_00ff;
    // Byte 2i of `pairs` is the two-digit number at digits 2i and 2i + 1.
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let high = (pairs & LOW_OF_EACH_HALF).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((pairs >> 16) & LOW_OF_EACH_HALF).wrapping_mul(1 + (10_000 << 32));
    high.wrapping_add(low) >> 32
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` so it round-trips as a JSON number (never NaN/∞ —
/// the API's estimates and budgets are always finite).
pub fn json_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "API must not emit non-finite numbers");
    let mut s = format!("{x}");
    // `{}` prints integral floats bare ("3"); keep them valid JSON but
    // unambiguous as floats for typed clients.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

/// `POST /ingest` body: `{"items": [1, 2, 3]}`.
#[derive(Debug, PartialEq, Eq)]
pub struct IngestRequest {
    /// The keys to ingest, in order.
    pub items: Vec<u64>,
}

impl IngestRequest {
    /// Decodes the body in one pass, tolerating unknown fields: the first
    /// `items` array's digit runs go straight into the key vector, with no
    /// [`JsonValue`] tree. Every other field, and any later `items`, is
    /// checked as JSON and dropped.
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the first grammar violation anywhere in the
    /// document; otherwise when the body is not an object, `items` is absent
    /// or not an array, or an element is not a bare JSON integer in
    /// `[0, 2^53]` (so `-0`, `3.0` and `1e3` are refused).
    pub fn decode(body: &[u8]) -> Result<Self, JsonError> {
        let mut parser = Parser::new(body)?;
        let mut items = None;
        if parser.peek() == Some(b'{') {
            parser.fields(|parser, name| {
                if items.is_none() && name == "items" {
                    items = Some(parser.items()?);
                } else {
                    parser.value(1)?;
                }
                Ok(())
            })?;
        } else {
            parser.value(0)?;
        }
        parser.finish()?;
        match items {
            Some(items) => Ok(Self { items: items? }),
            None => Err(JsonError("missing 'items' field")),
        }
    }
}

/// `{"error": "...", "status": 400}` — every non-2xx body.
pub fn error_body(status: u16, message: &str) -> String {
    format!("{{\"status\":{status},\"error\":{}}}", json_string(message))
}

/// `GET /topk` response body.
pub fn topk_body(epoch: u64, entries: &[(u64, f64)]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|(key, est)| format!("{{\"key\":{key},\"estimate\":{}}}", json_f64(*est)))
        .collect();
    format!("{{\"epoch\":{epoch},\"top\":[{}]}}", rows.join(","))
}

/// `GET /point/{key}` response body.
pub fn point_body(epoch: u64, key: u64, estimate: f64) -> String {
    format!(
        "{{\"epoch\":{epoch},\"key\":{key},\"estimate\":{}}}",
        json_f64(estimate)
    )
}

/// `GET /epoch` response body.
pub fn epoch_body(epoch: u64, released_keys: usize) -> String {
    format!("{{\"epoch\":{epoch},\"released_keys\":{released_keys}}}")
}

/// `GET /budget` response body.
pub fn budget_body(
    scope: &str,
    remaining_epsilon: f64,
    remaining_delta: f64,
    charges: usize,
) -> String {
    format!(
        "{{\"scope\":{},\"remaining_epsilon\":{},\"remaining_delta\":{},\"charges\":{charges}}}",
        json_string(scope),
        json_f64(remaining_epsilon),
        json_f64(remaining_delta),
    )
}

/// `POST /ingest` response body.
pub fn ingest_body(accepted: usize, epoch: u64) -> String {
    format!("{{\"accepted\":{accepted},\"epoch\":{epoch}}}")
}

/// `POST /epoch/end` response body: the released snapshot's summary.
pub fn epoch_end_body(epoch: u64, items: u64, released_keys: usize) -> String {
    format!("{{\"epoch\":{epoch},\"items\":{items},\"released_keys\":{released_keys}}}")
}

/// `GET /window` response body: the service's epoch composition mode.
/// `window_epochs` is `null` unless the mode is windowed.
pub fn window_body(mode: &str, window_epochs: Option<u64>, epoch: u64) -> String {
    let w = match window_epochs {
        Some(w) => w.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"mode\":{},\"window_epochs\":{w},\"epoch\":{epoch}}}",
        json_string(mode)
    )
}

/// `GET /healthz` response body.
pub fn health_body(epochs: u64, tenants: usize) -> String {
    format!("{{\"status\":\"ok\",\"epochs\":{epochs},\"tenants\":{tenants}}}")
}

/// Decodes a released top-k / histogram response into a map — the client
/// half used by integration tests and the bench harness.
///
/// # Errors
///
/// [`JsonError`] if the body does not have the `topk_body` shape.
pub fn decode_topk(body: &[u8]) -> Result<BTreeMap<u64, f64>, JsonError> {
    let value = parse_json(body)?;
    let rows = match value.get("top") {
        Some(JsonValue::Array(rows)) => rows,
        _ => return Err(JsonError("missing 'top' array")),
    };
    let mut out = BTreeMap::new();
    for row in rows {
        let key = row
            .get("key")
            .and_then(JsonValue::as_u64)
            .ok_or(JsonError("row without 'key'"))?;
        let est = match row.get("estimate") {
            Some(JsonValue::Number(n)) => *n,
            _ => return Err(JsonError("row without 'estimate'")),
        };
        out.insert(key, est);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn parses_nested_document() {
        let doc = br#" {"a": [1, 2.5, -3], "b": {"c": "x\n\"y\"", "d": null}, "e": true} "#;
        let v = parse_json(doc).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-3.0)
            ]))
        );
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&JsonValue::String("x\n\"y\"".to_string()))
        );
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn tolerates_unknown_fields_but_not_bad_grammar() {
        assert_eq!(
            IngestRequest::decode(br#"{"future_flag": true, "items": [1, 2, 3]}"#).unwrap(),
            IngestRequest {
                items: vec![1, 2, 3]
            }
        );
        for bad in [
            &br#"{"items": [1, 2"#[..],
            br#"{"items": "nope"}"#,
            br#"{"items": [1.5]}"#,
            br#"{"items": [-1]}"#,
            br#"{}"#,
            br#"[1,2,3]"#,
            br#"{"items": [1]} trailing"#,
            br#"{items: [1]}"#,
            b"\xff\xfe",
        ] {
            assert!(IngestRequest::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let mut doc = Vec::new();
        doc.extend_from_slice(&[b'['; 64]);
        doc.extend_from_slice(&[b']'; 64]);
        assert_eq!(parse_json(&doc), Err(JsonError("nesting too deep")));
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f→";
        let encoded = json_string(nasty);
        let decoded = parse_json(encoded.as_bytes()).unwrap();
        assert_eq!(decoded, JsonValue::String(nasty.to_string()));
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(
            parse_json(br#""\u0041""#),
            Ok(JsonValue::String("A".to_string()))
        );
        for escape in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            assert_eq!(
                parse_json(escape.as_bytes()),
                Err(JsonError("bad \\u escape")),
                "{escape}"
            );
        }
        // A field name too: `it\u+065ms` is not `items`.
        assert_eq!(
            IngestRequest::decode(br#"{"it\u+065ms": [1]}"#),
            Err(JsonError("bad \\u escape"))
        );
    }

    #[test]
    fn topk_body_round_trips_through_decoder() {
        let body = topk_body(3, &[(7, 1234.5), (42, 99.0)]);
        let decoded = decode_topk(body.as_bytes()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!((decoded[&7] - 1234.5).abs() < 1e-12);
        assert!((decoded[&42] - 99.0).abs() < 1e-12);
    }

    #[test]
    fn bodies_are_valid_json() {
        for body in [
            error_body(429, "budget \"exceeded\""),
            point_body(1, 7, 3.25),
            epoch_body(2, 10),
            budget_body("global", 1.5, 1e-6, 3),
            ingest_body(100, 2),
            epoch_end_body(3, 1000, 12),
            health_body(3, 2),
            window_body("windowed", Some(4), 9),
            window_body("independent", None, 2),
        ] {
            parse_json(body.as_bytes()).unwrap_or_else(|e| panic!("{e}: {body}"));
        }
    }

    #[test]
    fn u64_exactness_guard() {
        assert_eq!(JsonValue::Number(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Number(3.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(2f64.powi(60)).as_u64(), None);
    }

    const NOT_KEYS: JsonError = JsonError("items must be unsigned integers");

    /// The keys a body decodes to, or its 400 message.
    type Decoded = Result<&'static [u64], &'static str>;

    fn items_of(token: &str) -> Result<Vec<u64>, JsonError> {
        IngestRequest::decode(format!(r#"{{"items": [{token}]}}"#).as_bytes()).map(|r| r.items)
    }

    #[test]
    fn items_reserve_one_slot_per_comma_plus_one() {
        for key in [7u64, 1_234_567_890_123_456] {
            for len in [0usize, 1, 2, 100, 8192] {
                let keys = vec![key; len];
                let body = format!(
                    r#"{{"items":[{}]}}"#,
                    keys.iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                let items = IngestRequest::decode(body.as_bytes()).unwrap().items;
                assert_eq!(items, keys);
                assert!(
                    items.capacity() <= len + 1,
                    "{len} keys of {key}: capacity {}",
                    items.capacity()
                );
            }
        }
    }

    #[test]
    fn ingest_keys_are_exact_up_to_2_pow_53() {
        let max = 1u64 << 53;
        assert_eq!(items_of(&format!("0, 7, {max}")), Ok(vec![0, 7, max]));
        // None of these may reach the sketch, rounded or not: a key is
        // its exact digits.
        for token in [
            "9007199254740993",
            "9007199254740994",
            "18446744073709551615",
            "18446744073709551616",
            "100000000000000000000000",
            "-0",
            "3.0",
            "1e3",
            "1E+2",
        ] {
            assert_eq!(items_of(token), Err(NOT_KEYS), "{token}");
        }
        // A token too large for f64 is a grammar error, which wins.
        assert_eq!(
            items_of(&format!("1{}", "0".repeat(400))),
            Err(JsonError("non-finite number"))
        );
    }

    #[test]
    fn number_grammar_follows_rfc_8259() {
        // (token, parse_json, IngestRequest::decode of `{"items": [token]}`)
        let table: &[(&str, Result<f64, &str>, Decoded)] = &[
            ("0", Ok(0.0), Ok(&[0])),
            ("42", Ok(42.0), Ok(&[42])),
            ("-0", Ok(0.0), Err(NOT_KEYS.0)),
            ("-12", Ok(-12.0), Err(NOT_KEYS.0)),
            ("0.5", Ok(0.5), Err(NOT_KEYS.0)),
            ("1E+2", Ok(100.0), Err(NOT_KEYS.0)),
            ("-1.5e-3", Ok(-0.0015), Err(NOT_KEYS.0)),
            ("01", Err("bad number"), Err("bad number")),
            ("00", Err("bad number"), Err("bad number")),
            ("-01", Err("bad number"), Err("bad number")),
            ("1.", Err("bad number"), Err("bad number")),
            ("1.e5", Err("bad number"), Err("bad number")),
            ("1e", Err("bad number"), Err("bad number")),
            ("1e+", Err("bad number"), Err("bad number")),
            ("-", Err("bad number"), Err("bad number")),
            ("--1", Err("bad number"), Err("bad number")),
            ("1e5-3", Err("bad number"), Err("bad number")),
            (".5", Err("expected a value"), Err("expected a value")),
            ("+1", Err("expected a value"), Err("expected a value")),
            ("1e400", Err("non-finite number"), Err("non-finite number")),
        ];
        for &(token, parsed, decoded) in table {
            let got = parse_json(token.as_bytes());
            match parsed {
                Ok(n) => assert_eq!(got, Ok(JsonValue::Number(n)), "{token}"),
                Err(e) => assert_eq!(got, Err(JsonError(e)), "{token}"),
            }
            assert_eq!(
                items_of(token),
                decoded.map(<[u64]>::to_vec).map_err(JsonError),
                "{token}"
            );
        }
        // Outside `items` too: a grammar error in any field is a 400.
        assert_eq!(
            IngestRequest::decode(br#"{"pad": 01, "items": [1]}"#),
            Err(JsonError("bad number"))
        );
    }

    #[test]
    fn grammar_errors_win_and_the_first_items_field_counts() {
        let cases: &[(&[u8], Decoded)] = &[
            (br#"{"items": [1.5], "x": [}"#, Err("expected a value")),
            (br#"{"items": "nope", "x": tru}"#, Err("bad literal")),
            (
                br#"{"x": 1} trailing"#,
                Err("trailing characters after document"),
            ),
            (
                br#"{"items": [-1]} ]"#,
                Err("trailing characters after document"),
            ),
            (br#"{"items": [1], "items": "x"}"#, Ok(&[1])),
            (
                br#"{"items": "x", "items": [1]}"#,
                Err("'items' must be an array"),
            ),
            (br#"{"items": [5, 6]}"#, Ok(&[5, 6])),
            (br#"{"items": [[1]]}"#, Err(NOT_KEYS.0)),
            (br#"{"items": []}"#, Ok(&[])),
            (br#"[1, 2, 3]"#, Err("missing 'items' field")),
            (br#"{"items": [1 2]}"#, Err("expected ',' or ']' in array")),
            (br#"{"items": [1,]}"#, Err("expected a value")),
            (b"{\"items\": [1]}\xff", Err("body is not utf-8")),
        ];
        for &(body, want) in cases {
            let want = want.map(<[u64]>::to_vec).map_err(JsonError);
            let shown = String::from_utf8_lossy(body);
            assert_eq!(
                IngestRequest::decode(body).map(|r| r.items),
                want,
                "{shown}"
            );
            assert_eq!(tree_decode(body), want, "{shown}");
        }
    }

    /// The tree decoder `IngestRequest::decode` replaced: parse the whole
    /// document, then find `items`, then convert each element with
    /// `as_u64`. It runs on today's `parse_json`, so the RFC 8259 number
    /// grammar applies to both sides and is pinned by
    /// `number_grammar_follows_rfc_8259` instead.
    fn tree_decode(body: &[u8]) -> Result<Vec<u64>, JsonError> {
        let value = parse_json(body)?;
        match value.get("items") {
            Some(JsonValue::Array(items)) => {
                items.iter().map(|v| v.as_u64().ok_or(NOT_KEYS)).collect()
            }
            Some(_) => Err(JsonError("'items' must be an array")),
            None => Err(JsonError("missing 'items' field")),
        }
    }

    /// Where the one-pass decoder may disagree with [`tree_decode`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Divergence {
        /// The tree accepted a key spelled with a sign, fraction or
        /// exponent (`-0`, `3.0`, `1e3`), or a digit run above 2^53 that the
        /// `f64` rounded down to 2^53; the one-pass decoder refuses it.
        InexactKey,
    }

    /// `Ok(None)` when both decoders agree, `Ok(Some(_))` for an allowed
    /// divergence, `Err` describing any other disagreement.
    fn compare(body: &[u8]) -> Result<Option<Divergence>, String> {
        let tree = tree_decode(body);
        let one_pass = IngestRequest::decode(body).map(|r| r.items);
        match (&tree, &one_pass) {
            _ if tree == one_pass => Ok(None),
            (Ok(_), Err(e)) if *e == NOT_KEYS && has_inexact_number(body) => {
                Ok(Some(Divergence::InexactKey))
            }
            _ => Err(format!(
                "{:?}: tree {tree:?}, one pass {one_pass:?}",
                String::from_utf8_lossy(body)
            )),
        }
    }

    /// Whether a grammatical `body` holds a number token other than a bare
    /// integer in `[0, 2^53]`.
    fn has_inexact_number(body: &[u8]) -> bool {
        let mut i = 0;
        while i < body.len() {
            match body[i] {
                b'"' => {
                    i += 1;
                    while body[i] != b'"' {
                        i += if body[i] == b'\\' { 2 } else { 1 };
                    }
                    i += 1;
                }
                b'-' | b'0'..=b'9' => {
                    let len = body[i..]
                        .iter()
                        .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                        .count();
                    let token = std::str::from_utf8(&body[i..i + len]).unwrap();
                    let exact = token.bytes().all(|b| b.is_ascii_digit())
                        && token.parse::<u64>().is_ok_and(|k| k <= MAX_ITEM);
                    if !exact {
                        return true;
                    }
                    i += len;
                }
                _ => i += 1,
            }
        }
        false
    }

    /// Random `POST /ingest` bodies: valid ones with keys of every length up
    /// to and past 2^53, `,` and `, ` separators, unknown and nested fields
    /// around `items`, duplicate and
    /// escaped `items` names, non-object roots and empty arrays; a third
    /// are then truncated and a third get byte flips.
    struct BodyGen(rand::rngs::StdRng);

    impl BodyGen {
        fn new(seed: u64) -> Self {
            use rand::SeedableRng as _;
            Self(rand::rngs::StdRng::seed_from_u64(seed))
        }

        fn pick<'a>(&mut self, choices: &[&'a str]) -> &'a str {
            choices[self.0.random_range(0..choices.len())]
        }

        fn ws(&mut self, out: &mut String) {
            while self.0.random_bool(0.3) {
                out.push_str(self.pick(&[" ", "\t", "\n", "\r"]));
            }
        }

        fn key(&mut self, out: &mut String) {
            let max = 1u64 << 53;
            match self.0.random_range(0..100u32) {
                0..=29 => out.push_str(&self.0.random_range(0..1000u64).to_string()),
                30..=39 => {
                    // Every length the word step and the element step meet.
                    let len = self.0.random_range(1..=16u32);
                    let low = if len == 1 { 0 } else { 10u64.pow(len - 1) };
                    out.push_str(&self.0.random_range(low..10u64.pow(len)).to_string());
                }
                40..=64 => out.push_str(&self.0.random_range(0..=max).to_string()),
                65..=69 => out.push_str(&self.0.random_range(max - 3..=max + 3).to_string()),
                70..=74 => out.push_str(&self.0.random_range(max..=u64::MAX).to_string()),
                75..=76 => {
                    out.push('1');
                    out.push_str(&"0".repeat(self.0.random_range(19..400)));
                }
                77..=86 => {
                    let inexact = ["-0", "3.0", "1e3", "1E+2", "2.5", "-1", "0.0", "5e-1"];
                    out.push_str(self.pick(&inexact));
                }
                87..=91 => out.push_str(self.pick(&["01", "1.", "-01", "1.e5", "-", "1e5-3"])),
                _ => self.value(out, 2),
            }
        }

        fn value(&mut self, out: &mut String, depth: usize) {
            match self.0.random_range(0..10u32) {
                0 => out.push_str(self.pick(&["null", "true", "false", "nul"])),
                1 | 2 => {
                    let s = [r#""""#, r#""items""#, r#""a\"b""#, r#""A\n""#, "\"é→\""];
                    out.push_str(self.pick(&s));
                }
                3 | 4 => self.key(out),
                5 if self.0.random_bool(0.2) => {
                    // Nesting around the depth limit.
                    let n = self.0.random_range(12..20);
                    out.push_str(&"[".repeat(n));
                    out.push_str(&"]".repeat(n));
                }
                5..=7 => {
                    out.push('[');
                    for i in 0..self.0.random_range(0..4) {
                        if i > 0 {
                            out.push(',');
                        }
                        self.ws(out);
                        self.value(out, depth + 1);
                        self.ws(out);
                    }
                    out.push(']');
                }
                _ => self.object(out, depth, false),
            }
        }

        fn object(&mut self, out: &mut String, depth: usize, top: bool) {
            out.push('{');
            let names = [
                "items",
                "items",
                r"it\u0065ms",
                "item",
                "ITEMS",
                "x",
                "future_flag",
                "",
            ];
            for i in 0..self.0.random_range(0..5) {
                if i > 0 {
                    out.push(',');
                }
                self.ws(out);
                let name = self.pick(&names);
                out.push_str(&format!("\"{name}\""));
                self.ws(out);
                out.push(':');
                self.ws(out);
                if top && name.starts_with("it") && self.0.random_bool(0.85) {
                    out.push('[');
                    for j in 0..self.0.random_range(0..20) {
                        if j > 0 {
                            out.push_str(self.pick(&[",", ", "]));
                        }
                        self.ws(out);
                        self.key(out);
                        self.ws(out);
                    }
                    out.push(']');
                } else if depth < 4 {
                    self.value(out, depth + 1);
                } else {
                    self.key(out);
                }
                self.ws(out);
            }
            out.push('}');
        }

        fn body(&mut self) -> Vec<u8> {
            let mut out = String::new();
            self.ws(&mut out);
            if self.0.random_bool(0.85) {
                self.object(&mut out, 0, true);
            } else {
                self.value(&mut out, 0);
            }
            self.ws(&mut out);
            if self.0.random_bool(0.03) {
                out.push_str(" x");
            }
            let mut body = out.into_bytes();
            match self.0.random_range(0..3u32) {
                0 => body.truncate(self.0.random_range(0..=body.len())),
                1 if !body.is_empty() => {
                    for _ in 0..self.0.random_range(1..=3) {
                        let at = self.0.random_range(0..body.len());
                        let syntax = b"-.eE+0123456789,[]{}\": ";
                        body[at] = if self.0.random_bool(0.8) {
                            syntax[self.0.random_range(0..syntax.len())]
                        } else {
                            self.0.random()
                        };
                    }
                }
                _ => {}
            }
            body
        }
    }

    /// The word step at every run length it can meet: runs of 1–17 digits
    /// with and without a leading zero, 2^53 and 2^53 + 1, each followed by
    /// every byte value and then 0–9 bytes before the body ends, as the
    /// first and as a later element. Every body decodes as the tree
    /// decoder does under the exactness rules.
    #[test]
    fn word_step_matches_tree_decoder_for_every_run_and_next_byte() {
        let digits = "98765432101234567";
        let mut runs = Vec::new();
        for len in 1..=17 {
            runs.push(digits[..len].to_string());
            runs.push(format!("0{}", &digits[..len - 1]));
        }
        runs.push(MAX_ITEM.to_string());
        runs.push((MAX_ITEM + 1).to_string());
        // What may follow the byte after the run, cut to the slack.
        let tails = [
            "1]}      ",
            " 1]}     ",
            "}        ",
            "]}       ",
            "5]}      ",
        ];
        for run in &runs {
            for next in 0..=255u8 {
                for slack in 0..=9 {
                    for prefix in ["{\"items\":[", "{\"items\":[5, "] {
                        for tail in tails {
                            let mut body = prefix.as_bytes().to_vec();
                            body.extend_from_slice(run.as_bytes());
                            body.push(next);
                            body.extend_from_slice(&tail.as_bytes()[..slack]);
                            if let Err(why) = compare(&body) {
                                panic!("run {run}, next byte {next:#04x}, slack {slack}: {why}");
                            }
                        }
                    }
                }
            }
            // The table is not vacuous: each exact key is read as one.
            let exact = !(run.len() > 1 && run.starts_with('0'))
                && run.parse::<u64>().is_ok_and(|key| key <= MAX_ITEM);
            let key = run.parse::<u64>().unwrap_or(0);
            for (body, want) in [
                (format!("{{\"items\":[{run},1]}}"), vec![key, 1]),
                (format!("{{\"items\":[5, {run}]}}"), vec![5, key]),
            ] {
                let got = IngestRequest::decode(body.as_bytes()).map(|r| r.items);
                assert_eq!(got.is_ok(), exact, "{body}");
                if exact {
                    assert_eq!(got, Ok(want), "{body}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        #[test]
        fn one_pass_decoder_matches_tree_decoder(seed in 0u64..u64::MAX) {
            let body = BodyGen::new(seed).body();
            if let Err(why) = compare(&body) {
                panic!("seed {seed}: {why}");
            }
        }
    }

    /// The generator reaches every outcome the differential test compares.
    #[test]
    fn body_generator_covers_every_outcome() {
        let mut seen = BTreeMap::new();
        for seed in 0..3000 {
            let body = BodyGen::new(seed).body();
            let outcome = match (compare(&body), IngestRequest::decode(&body)) {
                (Ok(Some(d)), _) => format!("{d:?}"),
                (_, Ok(r)) if r.items.is_empty() => "empty".to_string(),
                (_, Ok(_)) => "keys".to_string(),
                (_, Err(e)) => e.0.to_string(),
            };
            *seen.entry(outcome).or_insert(0u32) += 1;
        }
        for outcome in [
            "InexactKey",
            "empty",
            "keys",
            "items must be unsigned integers",
            "'items' must be an array",
            "missing 'items' field",
            "body is not utf-8",
            "bad number",
            "non-finite number",
            "nesting too deep",
            "bad literal",
            "trailing characters after document",
            "expected a value",
            "expected ',' or ']' in array",
            "expected ',' or '}' in object",
        ] {
            assert!(seen.contains_key(outcome), "{outcome} never seen: {seen:?}");
        }
    }
}
