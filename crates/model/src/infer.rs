//! Lexical type inference over string data.
//!
//! Structured sources arrive as text (CSV cells, scraped tables) and parsed
//! web text is all strings; both the schema-integration matchers and the
//! cleaning/transformation engine need to know what a string *lexically is*:
//! a money amount (`"$27"`), a date (`"3/4/2013"`), a URL, a percentage, a
//! number, etc. All detectors are hand-rolled scanners — no regex engine.

use crate::value::Value;

/// Lexical type of a string value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LexicalType {
    Null,
    Bool,
    Integer,
    Decimal,
    /// Currency amount with symbol or code, e.g. `$27`, `€19.99`, `27 USD`.
    Money,
    /// Percentage, e.g. `93%`, `93 percent`.
    Percent,
    /// Calendar date in common numeric or month-name formats.
    Date,
    /// Clock time such as `7pm`, `19:30`.
    Time,
    /// `http(s)://...` or `www.`-prefixed URL.
    Url,
    /// Free text (fallback).
    Text,
}

impl LexicalType {
    /// Every type in declaration order: `ALL[ty as usize] == ty`, so a
    /// `[_; LexicalType::ALL.len()]` array is a histogram indexed by type.
    pub const ALL: [LexicalType; 10] = [
        LexicalType::Null,
        LexicalType::Bool,
        LexicalType::Integer,
        LexicalType::Decimal,
        LexicalType::Money,
        LexicalType::Percent,
        LexicalType::Date,
        LexicalType::Time,
        LexicalType::Url,
        LexicalType::Text,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LexicalType::Null => "null",
            LexicalType::Bool => "bool",
            LexicalType::Integer => "integer",
            LexicalType::Decimal => "decimal",
            LexicalType::Money => "money",
            LexicalType::Percent => "percent",
            LexicalType::Date => "date",
            LexicalType::Time => "time",
            LexicalType::Url => "url",
            LexicalType::Text => "text",
        }
    }

    /// Whether values of this type carry a numeric magnitude.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            LexicalType::Integer | LexicalType::Decimal | LexicalType::Money | LexicalType::Percent
        )
    }
}

/// Infer the lexical type of a [`Value`].
pub fn infer_value(v: &Value) -> LexicalType {
    match v {
        Value::Null => LexicalType::Null,
        Value::Bool(_) => LexicalType::Bool,
        Value::Int(_) => LexicalType::Integer,
        Value::Float(_) => LexicalType::Decimal,
        Value::Str(s) => infer_str(s),
        Value::Array(_) | Value::Doc(_) => LexicalType::Text,
    }
}

/// Infer the lexical type of a raw string. Nothing is allocated.
pub fn infer_str(raw: &str) -> LexicalType {
    let s = raw.trim();
    if s.is_empty() || s.eq_ignore_ascii_case("null") || s.eq_ignore_ascii_case("n/a") || s == "-" {
        return LexicalType::Null;
    }
    if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false") {
        return LexicalType::Bool;
    }
    if is_url(s) {
        return LexicalType::Url;
    }
    // Every detector below needs an ASCII digit: an amount, a day, an
    // hour or a number. Most free text has none and stops here.
    if !s.bytes().any(|b| b.is_ascii_digit()) {
        return LexicalType::Text;
    }
    if parse_money(s).is_some() {
        return LexicalType::Money;
    }
    if parse_percent(s).is_some() {
        return LexicalType::Percent;
    }
    if parse_date(s).is_some() {
        return LexicalType::Date;
    }
    if is_time(s) {
        return LexicalType::Time;
    }
    if parse_integer(s).is_some() {
        return LexicalType::Integer;
    }
    if parse_decimal(s).is_some() {
        return LexicalType::Decimal;
    }
    LexicalType::Text
}

/// Parse an integer allowing thousands separators: `960,998` → 960998.
pub fn parse_integer(s: &str) -> Option<i64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (neg, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    if digits.is_empty() {
        return None;
    }
    let mut val: i64 = 0;
    let mut any = false;
    let mut since_comma = 0usize;
    let mut seen_comma = false;
    for c in digits.chars() {
        match c {
            '0'..='9' => {
                val = val.checked_mul(10)?.checked_add((c as u8 - b'0') as i64)?;
                any = true;
                since_comma += 1;
            }
            ',' => {
                // A separator must follow 1-3 leading digits and precede
                // exactly 3 digits per group; validate the group retroactively.
                if !any || (seen_comma && since_comma != 3) || since_comma > 3 {
                    return None;
                }
                seen_comma = true;
                since_comma = 0;
            }
            _ => return None,
        }
    }
    if seen_comma && since_comma != 3 {
        return None;
    }
    if !any {
        return None;
    }
    Some(if neg { -val } else { val })
}

/// Parse a decimal number with optional thousands separators.
pub fn parse_decimal(s: &str) -> Option<f64> {
    let s = s.trim();
    if let Some(dot) = s.find('.') {
        let (int_part, frac_part) = s.split_at(dot);
        let frac = &frac_part[1..];
        if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let int_val = if int_part.is_empty() || int_part == "-" || int_part == "+" {
            if int_part == "-" { -0.0 } else { 0.0 }
        } else {
            parse_integer(int_part)? as f64
        };
        let neg = int_part.starts_with('-');
        // Digits past the 22nd move the value by under 1e-22 and are
        // dropped, so the fold stays finite at any length; 10^22 is the
        // largest power of ten an f64 holds exactly.
        let digits = &frac.as_bytes()[..frac.len().min(22)];
        let frac_val = digits.iter().fold(0f64, |acc, b| acc * 10.0 + (b - b'0') as f64)
            / 10f64.powi(digits.len() as i32);
        Some(if neg { int_val - frac_val } else { int_val + frac_val })
    } else {
        parse_integer(s).map(|i| i as f64)
    }
}

/// Known currency markers: `(symbol_or_code, iso)` pairs.
const CURRENCIES: &[(&str, &str)] = &[
    ("$", "USD"),
    ("€", "EUR"),
    ("£", "GBP"),
    ("¥", "JPY"),
    ("USD", "USD"),
    ("EUR", "EUR"),
    ("GBP", "GBP"),
    ("JPY", "JPY"),
    ("dollars", "USD"),
    ("euros", "EUR"),
];

/// A parsed money amount.
#[derive(Debug, Clone, PartialEq)]
pub struct Money {
    /// Amount in major units.
    pub amount: f64,
    /// ISO currency code.
    pub currency: &'static str,
}

/// Parse a currency amount: `$27`, `€19.99`, `27 USD`, `1,250 dollars`.
pub fn parse_money(s: &str) -> Option<Money> {
    let s = s.trim();
    // Prefix symbol/code form.
    for (marker, iso) in CURRENCIES {
        if let Some(rest) = strip_prefix_ci(s, marker) {
            let rest = rest.trim_start();
            if let Some(amount) = parse_decimal(rest) {
                return Some(Money { amount, currency: iso });
            }
        }
        if let Some(rest) = strip_suffix_ci(s, marker) {
            let rest = rest.trim_end();
            if !rest.is_empty() {
                if let Some(amount) = parse_decimal(rest) {
                    return Some(Money { amount, currency: iso });
                }
            }
        }
    }
    None
}

fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len()
        && s.is_char_boundary(prefix.len())
        && s[..prefix.len()].eq_ignore_ascii_case(prefix)
    {
        Some(&s[prefix.len()..])
    } else {
        None
    }
}

fn strip_suffix_ci<'a>(s: &'a str, suffix: &str) -> Option<&'a str> {
    let cut = s.len().checked_sub(suffix.len())?;
    if s.is_char_boundary(cut) && s[cut..].eq_ignore_ascii_case(suffix) {
        Some(&s[..cut])
    } else {
        None
    }
}

/// Parse a percentage to its number: `93%` and `93 percent` (the word in
/// any ASCII case) are both 93.
pub fn parse_percent(s: &str) -> Option<f64> {
    let s = s.trim();
    let rest = s.strip_suffix('%').or_else(|| strip_suffix_ci(s, "percent"))?;
    parse_decimal(rest.trim_end())
}

const MONTHS: &[&str] = &[
    "january", "february", "march", "april", "may", "june", "july", "august", "september",
    "october", "november", "december",
];

/// A parsed calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimpleDate {
    pub year: u16,
    pub month: u8,
    pub day: u8,
}

impl SimpleDate {
    /// Render in the paper's `M/D/YYYY` style (Table VI's `3/4/2013`).
    pub fn to_us_string(self) -> String {
        format!("{}/{}/{}", self.month, self.day, self.year)
    }

    /// Render in ISO `YYYY-MM-DD` style.
    pub fn to_iso_string(self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Month number of a full English month name or its three-letter
/// abbreviation, ASCII case-insensitively (`march`, `Mar`, `MARCH`).
fn month_from_name(name: &str) -> Option<u8> {
    MONTHS
        .iter()
        .position(|m| m.eq_ignore_ascii_case(name) || (name.len() == 3 && m[..3].eq_ignore_ascii_case(name)))
        .map(|i| i as u8 + 1)
}

/// True when `word` names a month the way [`parse_date`]'s month-name
/// forms accept it: the full English name or its three-letter
/// abbreviation, in any ASCII case. A scanner can test the first word of
/// a candidate with this before paying for [`parse_date`].
pub fn is_month_name(word: &str) -> bool {
    month_from_name(word).is_some()
}

fn days_in_month(year: u16, month: u8) -> u8 {
    match month {
        2 if year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400)) => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

fn valid_date(year: u16, month: u8, day: u8) -> Option<SimpleDate> {
    if !(1..=12).contains(&month)
        || !(1000..=3000).contains(&year)
        || !(1..=days_in_month(year, month)).contains(&day)
    {
        return None;
    }
    Some(SimpleDate { year, month, day })
}

/// Parse common date formats: `3/4/2013`, `2013-03-04`, `March 4, 2013`,
/// `4 March 2013`, `Mar 4 2013`.
pub fn parse_date(s: &str) -> Option<SimpleDate> {
    let s = s.trim();
    // Numeric with separators.
    for sep in ['/', '-'] {
        let Some(parts) = three(s.split(sep)) else { continue };
        if !parts.iter().all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit())) {
            continue;
        }
        let [first, _, last] = parts;
        let [a, b, c] = parts.map(|p| p.parse::<u32>().unwrap_or(0));
        let (year, month, day) = if first.len() == 4 {
            (a, b, c) // YYYY-MM-DD
        } else if last.len() == 4 {
            (c, a, b) // M/D/YYYY
        } else {
            return None;
        };
        // A month or day past 255 must not wrap into range.
        return valid_date(
            u16::try_from(year).ok()?,
            u8::try_from(month).ok()?,
            u8::try_from(day).ok()?,
        );
    }
    // Month-name forms: commas separate words like whitespace does.
    let [first, second, third] =
        three(s.split(|c: char| c == ',' || c.is_whitespace()).filter(|t| !t.is_empty()))?;
    // "March 4 2013"
    if let Some(m) = month_from_name(first) {
        if let (Ok(d), Ok(y)) = (second.parse::<u8>(), third.parse::<u16>()) {
            return valid_date(y, m, d);
        }
    }
    // "4 March 2013"
    if let Some(m) = month_from_name(second) {
        if let (Ok(d), Ok(y)) = (first.parse::<u8>(), third.parse::<u16>()) {
            return valid_date(y, m, d);
        }
    }
    None
}

/// The items of an iterator that yields exactly three.
fn three<'a>(mut it: impl Iterator<Item = &'a str>) -> Option<[&'a str; 3]> {
    let items = [it.next()?, it.next()?, it.next()?];
    it.next().is_none().then_some(items)
}

fn is_time(s: &str) -> bool {
    // "7pm", "7 pm", "11am"
    for suffix in ["am", "pm"] {
        if let Some(rest) = strip_suffix_ci(s, suffix) {
            let rest = rest.trim_end();
            if let Ok(h) = rest.parse::<u8>() {
                return (1..=12).contains(&h);
            }
            // "7:30pm"
            if let Some((h, m)) = rest.split_once(':') {
                return h.parse::<u8>().map(|h| (1..=12).contains(&h)).unwrap_or(false)
                    && m.parse::<u8>().map(|m| m < 60).unwrap_or(false);
            }
        }
    }
    // "19:30"
    if let Some((h, m)) = s.split_once(':') {
        if let (Ok(h), Ok(m)) = (h.parse::<u8>(), m.parse::<u8>()) {
            return h < 24 && m < 60 && !s.contains(' ');
        }
    }
    false
}

fn is_url(s: &str) -> bool {
    if s.contains(char::is_whitespace) {
        return false;
    }
    ["http://", "https://", "www."].iter().any(|p| strip_prefix_ci(s, p).is_some())
        && s.len() > 8
        && s.contains('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_with_separators() {
        assert_eq!(parse_integer("960,998"), Some(960_998));
        assert_eq!(parse_integer("1,234,567"), Some(1_234_567));
        assert_eq!(parse_integer("-42"), Some(-42));
        assert_eq!(parse_integer("12,34"), None);
        assert_eq!(parse_integer("1,2345"), None);
        assert_eq!(parse_integer(",123"), None);
        assert_eq!(parse_integer(""), None);
        assert_eq!(parse_integer("12a"), None);
    }

    #[test]
    fn decimals() {
        assert_eq!(parse_decimal("27"), Some(27.0));
        assert_eq!(parse_decimal("19.99"), Some(19.99));
        assert_eq!(parse_decimal("1,250.50"), Some(1250.50));
        assert_eq!(parse_decimal("-0.5"), Some(-0.5));
        assert_eq!(parse_decimal("1."), None);
        assert_eq!(parse_decimal("a.5"), None);
    }

    #[test]
    fn long_fractions_parse_finite() {
        let x = parse_decimal(&format!("0.{}", "5".repeat(320))).unwrap();
        assert!((x - 0.5556).abs() < 1e-4, "{x}");
        let x = parse_decimal(&format!("-12.{}", "9".repeat(400))).unwrap();
        assert!((x + 13.0).abs() < 1e-9, "{x}");
    }

    #[test]
    fn percentages() {
        assert_eq!(parse_percent("93%"), Some(93.0));
        assert_eq!(parse_percent(" 12.5 % "), Some(12.5));
        assert_eq!(parse_percent("5 Percent"), Some(5.0));
        assert_eq!(parse_percent("-1,250PERCENT"), Some(-1250.0));
        for bad in ["%", "percent", "5%%", "5 percents", "five percent", "5 per cent"] {
            assert_eq!(parse_percent(bad), None, "{bad}");
        }
    }

    #[test]
    fn money_prefix_and_suffix() {
        assert_eq!(parse_money("$27"), Some(Money { amount: 27.0, currency: "USD" }));
        assert_eq!(parse_money("€19.99"), Some(Money { amount: 19.99, currency: "EUR" }));
        assert_eq!(parse_money("27 USD"), Some(Money { amount: 27.0, currency: "USD" }));
        assert_eq!(
            parse_money("1,250 dollars"),
            Some(Money { amount: 1250.0, currency: "USD" })
        );
        assert_eq!(parse_money("27"), None);
        assert_eq!(parse_money("$"), None);
    }

    #[test]
    fn dates_in_paper_formats() {
        // Table VI: FIRST = "3/4/2013"
        let d = parse_date("3/4/2013").unwrap();
        assert_eq!((d.year, d.month, d.day), (2013, 3, 4));
        assert_eq!(d.to_us_string(), "3/4/2013");
        assert_eq!(d.to_iso_string(), "2013-03-04");
        let iso = parse_date("2013-03-04").unwrap();
        assert_eq!(iso, d);
        assert_eq!(parse_date("March 4, 2013"), Some(d));
        assert_eq!(parse_date("4 March 2013"), Some(d));
        assert_eq!(parse_date("Mar 4 2013"), Some(d));
        assert_eq!(parse_date("13/40/2013"), None);
        assert_eq!(parse_date("not a date"), None);
        // Days that do not exist in their month.
        for bad in [
            "2/31/2013",
            "2/29/2013",
            "February 30, 2013",
            "April 31 2013",
            "2013-02-30",
            "257/1/2013",
            "2013-01-257",
        ] {
            assert_eq!(parse_date(bad), None, "{bad}");
        }
        // The Gregorian leap rule: 2012 and 2000 are leap years, 1900 is not.
        assert_eq!(
            parse_date("2/29/2012"),
            Some(SimpleDate { year: 2012, month: 2, day: 29 })
        );
        assert!(parse_date("2000-02-29").is_some());
        assert_eq!(parse_date("1900-02-29"), None);
        assert!(parse_date("12/31/2013").is_some());
    }

    #[test]
    fn month_names() {
        for m in ["march", "Mar", "MARCH", "may", "Sep", "september"] {
            assert!(is_month_name(m), "{m}");
        }
        for w in ["Marc", "Ma", "", "Matilda", "Septembre", "M\u{e4}r"] {
            assert!(!is_month_name(w), "{w}");
        }
        // A non-ASCII word whose third byte falls inside a character
        // neither matches nor panics.
        assert!(!is_month_name("Ma\u{e9}"));
        assert_eq!(parse_date("Ma\u{e9} 4, 2013"), None);
    }

    #[test]
    fn times() {
        for t in ["7pm", "7 pm", "11am", "7:30pm", "19:30"] {
            assert_eq!(infer_str(t), LexicalType::Time, "{t}");
        }
        assert_ne!(infer_str("25:99"), LexicalType::Time);
        assert_ne!(infer_str("13pm"), LexicalType::Time);
    }

    #[test]
    fn urls() {
        assert_eq!(infer_str("http://example.com/a"), LexicalType::Url);
        assert_eq!(infer_str("https://broadway.org"), LexicalType::Url);
        assert_eq!(infer_str("www.playbill.com"), LexicalType::Url);
        assert_eq!(infer_str("http://b ad.com"), LexicalType::Text);
    }

    #[test]
    fn full_inference_precedence() {
        assert_eq!(infer_str(""), LexicalType::Null);
        assert_eq!(infer_str("N/A"), LexicalType::Null);
        assert_eq!(infer_str("true"), LexicalType::Bool);
        assert_eq!(infer_str("$27"), LexicalType::Money);
        assert_eq!(infer_str("93%"), LexicalType::Percent);
        assert_eq!(infer_str("93 percent"), LexicalType::Percent);
        assert_eq!(infer_str("960,998"), LexicalType::Integer);
        assert_eq!(infer_str("0.93"), LexicalType::Decimal);
        assert_eq!(infer_str("Shubert Theatre"), LexicalType::Text);
    }

    #[test]
    fn infer_value_uses_native_types() {
        assert_eq!(infer_value(&Value::Int(3)), LexicalType::Integer);
        assert_eq!(infer_value(&Value::Float(3.5)), LexicalType::Decimal);
        assert_eq!(infer_value(&Value::Null), LexicalType::Null);
        assert_eq!(infer_value(&Value::Str("$5".into())), LexicalType::Money);
    }

    #[test]
    fn all_lists_the_types_in_discriminant_order() {
        for (i, ty) in LexicalType::ALL.into_iter().enumerate() {
            assert_eq!(ty as usize, i, "{ty:?}");
        }
    }

    #[test]
    fn numeric_classification() {
        assert!(LexicalType::Money.is_numeric());
        assert!(LexicalType::Integer.is_numeric());
        assert!(!LexicalType::Date.is_numeric());
        assert!(!LexicalType::Text.is_numeric());
    }
}

/// The detectors as they were before inference stopped allocating, kept as
/// the test oracle for [`infer_str`], [`parse_date`] and [`parse_percent`]:
/// `is_url` and `is_time` lowercase into a `String`, `parse_date` collects
/// its parts and tokens into `Vec`s over a comma-cleaned copy, and every
/// string runs every detector. The checks below assert the new scanners
/// agree with these on random and adversarial strings, and
/// `schema::oracle` profiles with them.
#[cfg(test)]
pub(crate) mod oracle {
    use proptest::prelude::*;

    use super::*;

    pub(crate) fn infer_str(raw: &str) -> LexicalType {
        let s = raw.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("null") || s.eq_ignore_ascii_case("n/a") || s == "-" {
            return LexicalType::Null;
        }
        if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false") {
            return LexicalType::Bool;
        }
        if is_url(s) {
            return LexicalType::Url;
        }
        if parse_money(s).is_some() {
            return LexicalType::Money;
        }
        if is_percent(s) {
            return LexicalType::Percent;
        }
        if parse_date(s).is_some() {
            return LexicalType::Date;
        }
        if is_time(s) {
            return LexicalType::Time;
        }
        if parse_integer(s).is_some() {
            return LexicalType::Integer;
        }
        if parse_decimal(s).is_some() {
            return LexicalType::Decimal;
        }
        LexicalType::Text
    }

    fn is_percent(s: &str) -> bool {
        if let Some(rest) = s.strip_suffix('%') {
            return parse_decimal(rest.trim_end()).is_some();
        }
        if let Some(rest) = strip_suffix_ci(s, "percent") {
            return parse_decimal(rest.trim_end()).is_some();
        }
        false
    }

    fn parse_date(s: &str) -> Option<SimpleDate> {
        let s = s.trim();
        for sep in ['/', '-'] {
            let parts: Vec<&str> = s.split(sep).collect();
            if parts.len() == 3 && parts.iter().all(|p| p.bytes().all(|b| b.is_ascii_digit()) && !p.is_empty()) {
                let nums: Vec<u32> = parts.iter().map(|p| p.parse().unwrap_or(0)).collect();
                let (year, month, day) = if parts[0].len() == 4 {
                    (nums[0], nums[1], nums[2])
                } else if parts[2].len() == 4 {
                    (nums[2], nums[0], nums[1])
                } else {
                    return None;
                };
                return valid_date(
                    u16::try_from(year).ok()?,
                    u8::try_from(month).ok()?,
                    u8::try_from(day).ok()?,
                );
            }
        }
        let cleaned: String = s.chars().map(|c| if c == ',' { ' ' } else { c }).collect();
        let tokens: Vec<&str> = cleaned.split_whitespace().collect();
        if tokens.len() == 3 {
            if let Some(m) = month_from_name(tokens[0]) {
                if let (Ok(d), Ok(y)) = (tokens[1].parse::<u8>(), tokens[2].parse::<u16>()) {
                    return valid_date(y, m, d);
                }
            }
            if let Some(m) = month_from_name(tokens[1]) {
                if let (Ok(d), Ok(y)) = (tokens[0].parse::<u8>(), tokens[2].parse::<u16>()) {
                    return valid_date(y, m, d);
                }
            }
        }
        None
    }

    fn is_time(s: &str) -> bool {
        let lower = s.to_ascii_lowercase();
        for suffix in ["am", "pm"] {
            if let Some(rest) = lower.strip_suffix(suffix) {
                let rest = rest.trim_end();
                if let Ok(h) = rest.parse::<u8>() {
                    return (1..=12).contains(&h);
                }
                if let Some((h, m)) = rest.split_once(':') {
                    return h.parse::<u8>().map(|h| (1..=12).contains(&h)).unwrap_or(false)
                        && m.parse::<u8>().map(|m| m < 60).unwrap_or(false);
                }
            }
        }
        if let Some((h, m)) = lower.split_once(':') {
            if let (Ok(h), Ok(m)) = (h.parse::<u8>(), m.parse::<u8>()) {
                return h < 24 && m < 60 && !lower.contains(' ');
            }
        }
        false
    }

    fn is_url(s: &str) -> bool {
        let lower = s.to_ascii_lowercase();
        if s.contains(char::is_whitespace) {
            return false;
        }
        (lower.starts_with("http://") || lower.starts_with("https://") || lower.starts_with("www."))
            && lower.len() > 8
            && lower.contains('.')
    }

    /// Pieces that sit on a detector's edge: month names in mixed case,
    /// meridiems, percent signs and words, currency symbols and codes,
    /// comma-grouped digits, lone signs and dots, URL prefixes, non-ASCII
    /// letters and Unicode whitespace.
    const PIECES: &[&str] = &[
        "March", "MAR", "mAy", "sept", "Sep", "december", "Dec", "4", "31", "29", "2013", "2012",
        "1900", "0", "007", "12", "13", "257", "19", "30", "60", "7", "am", "PM", "Am", "pM", ":",
        "%", "percent", "PerCent", "PERCENT", "$", "€", "£", "¥", "USD", "usd", "Eur", "jpy",
        "dollars", "Euros", "1,250", "960,998", "12,34", ",123", "-", "+", ".", "/", ",",
        "http://", "HTTPS://", "www.", "WwW.", "x.com", "a", "null", "N/A", "true", "FALSE", "é",
        "中", "Ж", "\u{212a}", "\u{2003}", "\u{a0}", "İ", "ǅ", "9.", ".5", "1e5", "--", "+-",
        "3/4/2013", "2013-03-04", "12/31/1999", "2/30/2013", "March 4, 2013", "4 Mar 2013",
        "7pm", "11 AM", "7:30pm", "19:30", "23:59", "24:00",
    ];

    /// Glue between pieces: nothing, spaces, a comma, a tab, an em space.
    const GLUE: &[&str] = &["", " ", "  ", ", ", "\t", "\u{2003}", ","];

    fn assert_same(s: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(super::infer_str(s), infer_str(s), "infer_str({:?})", s);
        prop_assert_eq!(super::parse_date(s), parse_date(s), "parse_date({:?})", s);
        prop_assert_eq!(super::parse_percent(s).is_some(), is_percent(s.trim()), "percent {:?}", s);
        prop_assert_eq!(super::is_time(s.trim()), is_time(s.trim()), "is_time({:?})", s);
        prop_assert_eq!(super::is_url(s.trim()), is_url(s.trim()), "is_url({:?})", s);
        Ok(())
    }

    #[test]
    fn fixed_edge_cases_infer_as_the_oracle_does() {
        for s in [
            "", " ", "-", "+", ".", "5 Percent", "5 PERCENT", "5percent", "5 %", "%", "percent",
            "7PM", "7 Am", "12:59Pm", "0am", "13pm", "23:59", "24:00", "7 :30", "19:30 ",
            "HTTP://A.B", "www.ab", "www.abcde", "Www.a.b c", "MARCH 4, 2013", "4 mar 2013",
            "Mar\u{2003}4\u{2003}2013", "Mar,4,,2013", "2013-02-29", "2012/02/29", "02/29/2012",
            "1/2/3/2013", "Kelvin 4 2013", "\u{212a}", "$1,250.50", "1,250 Dollars", "¥ 5",
            "USD", "- 5", "+.5", "-.", "5%%", "中 4 2013",
        ] {
            if let Err(e) = assert_same(s) {
                panic!("{e:?}");
            }
        }
    }

    /// Up to three pieces, each followed by its glue.
    pub(crate) fn adversarial() -> impl Strategy<Value = String> {
        (
            prop::collection::vec(0..PIECES.len(), 0..4),
            prop::collection::vec(0..GLUE.len(), 0..4),
        )
            .prop_map(|(picks, glue)| {
                let mut s = String::new();
                for (k, p) in picks.iter().enumerate() {
                    s.push_str(PIECES[*p]);
                    s.push_str(GLUE[glue.get(k).copied().unwrap_or(0)]);
                }
                s
            })
    }

    #[test]
    fn adversarial_strings_reach_every_type() {
        let mut rng = proptest::TestRng::new(45);
        let mut seen = [0; LexicalType::ALL.len()];
        for _ in 0..2048 {
            seen[super::infer_str(&adversarial().generate(&mut rng)) as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn adversarial_strings_infer_as_the_oracle_does(s in adversarial()) {
            assert_same(&s)?;
        }

        #[test]
        fn random_strings_infer_as_the_oracle_does(
            s in "[0-9a-zA-Z%$€£¥,.:/+ \u{2003}é\\-]{0,14}",
            t in ".{0,10}",
        ) {
            assert_same(&s)?;
            assert_same(&t)?;
        }
    }
}
