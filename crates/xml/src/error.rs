//! Error types for XML parsing and XPath evaluation.

use std::fmt;

/// Position (1-based line and column) in the source text where an error was
/// detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TextPos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters, not bytes).
    pub col: u32,
}

impl fmt::Display for TextPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Error produced while parsing an XML document.
///
/// The `Display` form is lowercase without trailing punctuation and includes
/// the source position, e.g. `unexpected end of input at 3:17`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    kind: ParseErrorKind,
    pos: TextPos,
}

/// The specific reason a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that is not allowed at this point was found.
    UnexpectedChar(char),
    /// An element name, attribute name or other token was malformed.
    InvalidName(String),
    /// A close tag did not match the open tag.
    MismatchedTag {
        /// Name of the element that was opened.
        open: String,
        /// Name found in the close tag.
        close: String,
    },
    /// An attribute appeared twice on the same element.
    DuplicateAttribute(String),
    /// A `&name;` entity reference was not one of the predefined five and
    /// not a valid character reference.
    UnknownEntity(String),
    /// A numeric character reference did not denote a valid char.
    InvalidCharRef(String),
    /// Document contained content after the root element or no root at all.
    InvalidDocumentStructure(String),
    /// Elements nested deeper than the parser's limit
    /// ([`MAX_NESTING_DEPTH`](crate::MAX_NESTING_DEPTH)).
    TooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
    },
    /// Anything else, with a human-readable description.
    Other(String),
}

impl ParseXmlError {
    pub(crate) fn new(kind: ParseErrorKind, pos: TextPos) -> Self {
        ParseXmlError { kind, pos }
    }

    /// The reason parsing failed.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// Where in the input the failure was detected.
    pub fn pos(&self) -> TextPos {
        self.pos
    }
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedEof => write!(f, "unexpected end of input")?,
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}")?,
            ParseErrorKind::InvalidName(n) => write!(f, "invalid name {n:?}")?,
            ParseErrorKind::MismatchedTag { open, close } => {
                write!(f, "mismatched tag: <{open}> closed by </{close}>")?
            }
            ParseErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}")?,
            ParseErrorKind::UnknownEntity(e) => write!(f, "unknown entity &{e};")?,
            ParseErrorKind::InvalidCharRef(r) => write!(f, "invalid character reference {r:?}")?,
            ParseErrorKind::InvalidDocumentStructure(d) => write!(f, "{d}")?,
            ParseErrorKind::TooDeep { limit } => {
                write!(f, "elements nested deeper than {limit} levels")?
            }
            ParseErrorKind::Other(d) => write!(f, "{d}")?,
        }
        write!(f, " at {}", self.pos)
    }
}

impl std::error::Error for ParseXmlError {}

/// Error produced while parsing or evaluating an XPath-lite expression.
#[derive(Debug, Clone, PartialEq)]
pub struct XPathError {
    message: String,
}

impl XPathError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        XPathError { message: message.into() }
    }

    /// Human-readable description of the failure.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xpath error: {}", self.message)
    }
}

impl std::error::Error for XPathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseXmlError::new(ParseErrorKind::UnexpectedEof, TextPos { line: 3, col: 17 });
        assert_eq!(e.to_string(), "unexpected end of input at 3:17");
    }

    #[test]
    fn display_mismatched_tag() {
        let e = ParseXmlError::new(
            ParseErrorKind::MismatchedTag { open: "a".into(), close: "b".into() },
            TextPos { line: 1, col: 5 },
        );
        assert_eq!(e.to_string(), "mismatched tag: <a> closed by </b> at 1:5");
    }

    #[test]
    fn xpath_error_display() {
        let e = XPathError::new("unknown function foo");
        assert_eq!(e.to_string(), "xpath error: unknown function foo");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseXmlError>();
        assert_send_sync::<XPathError>();
    }
}
