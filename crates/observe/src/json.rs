//! Minimal hand-rolled JSON writing (the workspace builds offline, so
//! no serde). Only what the exporters need: escaping, float formatting
//! that round-trips cleanly, and one object/array [`Writer`] that the
//! JSONL log, the metrics snapshots and the run report are written
//! through.

use std::fmt::Write as _;

use crate::event::FieldValue;

/// Escape a string for inclusion inside JSON quotes: backslash,
/// double quote, and control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON number for an `f64` (finite values; non-finite become null,
/// which JSON has no other spelling for).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never prints an exponent for ordinary magnitudes
        // and always round-trips; ensure integral floats stay numbers
        // with a decimal point so consumers see a float type.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// A value a [`Writer`] member can hold.
pub trait Value {
    fn write_to(&self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(u64, u32, usize, bool);

impl Value for f64 {
    fn write_to(&self, out: &mut String) {
        out.push_str(&number(*self));
    }
}

impl Value for str {
    fn write_to(&self, out: &mut String) {
        out.push_str(&string(self));
    }
}

impl Value for FieldValue {
    fn write_to(&self, out: &mut String) {
        match self {
            FieldValue::U64(n) => n.write_to(out),
            FieldValue::F64(f) => f.write_to(out),
            FieldValue::Str(s) => s.write_to(out),
            FieldValue::Bool(b) => b.write_to(out),
        }
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// How a [`Writer`] lays out its members.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// `{"a":1,"b":2}`: JSONL lines, snapshot bodies, table rows.
    Compact,
    /// `{"a": 1, "b": 2}`: the run report's inline sections.
    Spaced,
    /// One member per line, indented two spaces past the given column;
    /// the closing bracket sits on its own line at that column.
    Lines(usize),
}

/// Writes one JSON object or array into a `String`: separators, quoted
/// keys and the closing bracket, which is written when the writer
/// drops. A nested container is a second writer over [`Writer::key`] or
/// [`Writer::item`], dropped before its parent writes again.
pub struct Writer<'a> {
    out: &'a mut String,
    layout: Layout,
    close: char,
    empty: bool,
}

impl<'a> Writer<'a> {
    pub fn object(out: &'a mut String, layout: Layout) -> Self {
        Self::open(out, layout, '{', '}')
    }

    pub fn array(out: &'a mut String, layout: Layout) -> Self {
        Self::open(out, layout, '[', ']')
    }

    fn open(out: &'a mut String, layout: Layout, open: char, close: char) -> Self {
        out.push(open);
        if let Layout::Lines(_) = layout {
            out.push('\n');
        }
        Writer {
            out,
            layout,
            close,
            empty: true,
        }
    }

    /// Start the next array element; its value is written to the
    /// returned buffer.
    pub fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push_str(match self.layout {
                Layout::Compact => ",",
                Layout::Spaced => ", ",
                Layout::Lines(_) => ",\n",
            });
        }
        self.empty = false;
        if let Layout::Lines(indent) = self.layout {
            pad(self.out, indent + 2);
        }
        self.out
    }

    /// Start the next object member; its value is written to the
    /// returned buffer.
    pub fn key(&mut self, key: &str) -> &mut String {
        let colon = match self.layout {
            Layout::Compact => ":",
            Layout::Spaced | Layout::Lines(_) => ": ",
        };
        let out = self.item();
        key.write_to(out);
        out.push_str(colon);
        out
    }

    /// One object member.
    pub fn field(&mut self, key: &str, v: impl Value) -> &mut Self {
        v.write_to(self.key(key));
        self
    }
}

impl Drop for Writer<'_> {
    fn drop(&mut self) {
        if let Layout::Lines(indent) = self.layout {
            self.out.push('\n');
            pad(self.out, indent);
        }
        self.out.push(self.close);
    }
}

fn pad(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        assert_eq!(string("plain"), "\"plain\"");
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
    }

    fn value(v: impl Value) -> String {
        let mut out = String::new();
        v.write_to(&mut out);
        out
    }

    #[test]
    fn field_values_render() {
        assert_eq!(value(FieldValue::U64(7)), "7");
        assert_eq!(value(FieldValue::Bool(false)), "false");
        assert_eq!(value(FieldValue::Str("a\"b".into())), "\"a\\\"b\"");
    }

    #[test]
    fn writer_layouts() {
        let mut out = String::new();
        {
            let mut o = Writer::object(&mut out, Layout::Lines(0));
            o.field("a", 1u64);
            Writer::object(o.key("b"), Layout::Spaced)
                .field("x", "y")
                .field("z", 1.0);
            let mut rows = Writer::array(o.key("c"), Layout::Lines(2));
            Writer::object(rows.item(), Layout::Compact)
                .field("i", 0u32)
                .field("ok", true);
        }
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": {\"x\": \"y\", \"z\": 1.0},\n  \"c\": [\n    {\"i\":0,\"ok\":true}\n  ]\n}"
        );
        let mut empty = String::new();
        drop(Writer::array(&mut empty, Layout::Lines(2)));
        assert_eq!(empty, "[\n\n  ]");
    }
}
