//! Bytes to [`Program`]: the one loader behind every file-reading front end.
//!
//! A program file is either `SFBC` bytecode (sniffed by its magic) or
//! UTF-8 source text for the [`frontend`]. Both paths end in
//! `validate_program`, so a loaded program has passed every IR check. Loading is a pure function of the bytes: equal bytes always give
//! the same program or the same error.

use crate::encode::{self, DecodeError};
use crate::frontend::{self, FrontendError};
use crate::program::Program;
use std::fmt;

/// Why bytes did not load as a program.
#[derive(Debug)]
pub enum LoadError {
    /// `SFBC` bytecode that failed to decode or validate.
    Decode(DecodeError),
    /// Not bytecode, and not valid UTF-8 either.
    NotUtf8,
    /// Source text that failed to lex, parse, lower or validate.
    Compile(FrontendError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Decode(e) => write!(f, "{e}"),
            LoadError::NotUtf8 => write!(f, "not UTF-8 source"),
            LoadError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Decodes `bytes` as `SFBC` bytecode when they start with its magic, and
/// otherwise compiles them as source text.
pub fn load_program(bytes: &[u8]) -> Result<Program, LoadError> {
    if bytes.starts_with(b"SFBC") {
        return encode::decode(bytes).map_err(LoadError::Decode);
    }
    let src = std::str::from_utf8(bytes).map_err(|_| LoadError::NotUtf8)?;
    frontend::compile(src).map_err(LoadError::Compile)
}
