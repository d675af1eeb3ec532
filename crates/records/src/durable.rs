//! The one durable-file layer every persistent artifact goes through.
//!
//! - [`atomic_write`] replaces a whole file: write a sibling temporary,
//!   fsync it, rename it over the target, fsync the directory. A reader
//!   (or a post-crash restart) sees the old bytes or the new ones, never a
//!   torn mix, and once it returns the new bytes survive power loss.
//! - [`AppendLog`] is an append-only JSONL log of [`LogRecord`]s: one line
//!   per record, written with a single append and no user-space buffer, so
//!   a crash loses at most the line being written. Replay keeps exactly
//!   the newline-terminated lines that parse and decode; anything else is
//!   skipped. [`AppendLog::compact`] rewrites the log through
//!   [`atomic_write`].

use crate::Json;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Atomically replaces the file at `path` with `bytes`: the bytes go to a
/// sibling `.tmp` file, which is fsynced and renamed over the target; then
/// the parent directory (`.` for a bare filename) is fsynced so the rename
/// itself is durable.
///
/// # Errors
///
/// Returns any I/O error from writing, syncing, or renaming.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Directories cannot be opened as files on every platform; where they
    // can, syncing one commits its entries (here: the rename).
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// One line of an [`AppendLog`]: a record with a JSON wire form.
pub trait LogRecord: Sized {
    /// Serializes the record as one JSON document (written without a
    /// newline; the log adds it).
    fn to_json(&self) -> Json;
    /// Decodes a parsed line; `None` skips it (foreign kind, newer
    /// version, or missing fields).
    fn from_json(doc: &Json) -> Option<Self>;
}

/// An append-only JSONL log of `R` records.
#[derive(Debug)]
pub struct AppendLog<R> {
    path: PathBuf,
    file: File,
    lines: usize,
    _records: PhantomData<fn(&R)>,
}

impl<R: LogRecord> AppendLog<R> {
    /// Opens (creating if needed) the log at `path` for appending and
    /// returns it with the intact records already in it, in append order.
    ///
    /// If the file ends in a torn line (no trailing newline), a single
    /// `\n` is appended first, so the fragment becomes one corrupt line
    /// that replay skips instead of swallowing the next record. The file
    /// is never truncated: other processes may be appending to it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(AppendLog<R>, Vec<R>)> {
        let path = path.as_ref().to_path_buf();
        let bytes = read_bytes(&path)?;
        let records = parse_lines(&bytes);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if bytes.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n")?;
        }
        let lines = records.len();
        Ok((AppendLog { path, file, lines, _records: PhantomData }, records))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records replayed at open (or written by the last compaction) plus
    /// records appended since.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Appends one record as one line. After `append` returns, a crash of
    /// this process can no longer lose the record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing.
    pub fn append(&mut self, record: &R) -> std::io::Result<()> {
        let mut line = record.to_json().write();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.lines += 1;
        Ok(())
    }

    /// Rewrites the log to exactly `records`, one line each, through
    /// [`atomic_write`], and reopens the append handle on the new file. A
    /// reader or crash concurrent with the compaction sees the old log or
    /// the new one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing, syncing, renaming, or reopening.
    pub fn compact<'a>(&mut self, records: impl IntoIterator<Item = &'a R>) -> std::io::Result<()>
    where
        R: 'a,
    {
        let mut text = String::new();
        let mut lines = 0;
        for record in records {
            text.push_str(&record.to_json().write());
            text.push('\n');
            lines += 1;
        }
        atomic_write(&self.path, text.as_bytes())?;
        // The old handle still points at the replaced inode.
        self.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.lines = lines;
        Ok(())
    }
}

/// Reads the intact records of the log at `path` without opening it for
/// appending. A missing file reads as an empty log.
///
/// # Errors
///
/// Returns I/O errors other than the file not existing.
pub fn read_log<R: LogRecord>(path: impl AsRef<Path>) -> std::io::Result<Vec<R>> {
    Ok(parse_lines(&read_bytes(path.as_ref())?))
}

fn read_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// Only newline-terminated lines count: a line missing its terminator is
/// by definition the torn tail of an interrupted append.
fn parse_lines<R: LogRecord>(bytes: &[u8]) -> Vec<R> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .filter_map(|line| line.strip_suffix(b"\n"))
        .filter_map(|line| std::str::from_utf8(line).ok())
        .filter(|text| !text.trim().is_empty())
        .filter_map(|text| Json::parse(text).ok())
        .filter_map(|doc| R::from_json(&doc))
        .collect()
}
