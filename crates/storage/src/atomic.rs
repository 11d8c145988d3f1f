//! The one way a file is published: stream into `<path>.tmp`, then
//! flush → fsync → rename over `path` → best-effort fsync of the parent
//! directory. A reader can observe the file only after the rename, and
//! then always in full; a crash (or a drop without
//! [`AtomicFile::commit`]) at any earlier point leaves `path` untouched —
//! absent, or holding the previous complete file — and at worst an
//! orphan `.tmp` beside it. [`AtomicFile::commit`] is the single seam a
//! crash-point test has to cut.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bytes buffered before a `write` call. Region blocks of tens of KB
/// went straight through the default 8 KiB buffer, one call per block;
/// this batches a dozen or more of them into a call.
const WRITE_BUFFER: usize = 256 << 10;

/// A file that becomes visible at its path only on
/// [`AtomicFile::commit`].
pub struct AtomicFile {
    out: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
}

impl AtomicFile {
    /// Start writing what will be published at `path` (into
    /// `path + ".tmp"`, truncating a leftover one).
    pub fn create(path: &Path) -> io::Result<AtomicFile> {
        let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        Ok(AtomicFile {
            out: BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?),
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// Make everything written durable, then visible at the path.
    pub fn commit(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        fs::rename(&self.tmp, &self.path)?;
        // Make the rename itself durable where possible; directory
        // handles cannot be fsynced on every platform, so best-effort.
        let _ = sync_dir_of(&self.path);
        Ok(())
    }
}

/// Fsync the directory that holds `path`.
fn sync_dir_of(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Unlink `path` if it exists, then fsync its directory and return that
/// fsync's error: after `Ok`, no later rename in the directory reaches the
/// disk while `path` is still there.
pub fn remove_durably(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        removed => removed.and_then(|()| sync_dir_of(path)),
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.out.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}
