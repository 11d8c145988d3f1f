//! The one way a file is published: stream into a temporary file beside
//! it, then flush → fsync → publish under the final name → best-effort
//! fsync of the parent directory. A reader can observe the file only
//! once it is published, and then always in full; a crash (or a drop
//! without [`AtomicFile::commit`]) at any earlier point leaves `path`
//! untouched — absent, or holding the previous complete file — and at
//! worst an orphan `.tmp` beside it.
//!
//! There are two ways to publish. [`AtomicFile::create`] renames
//! `<path>.tmp` over `path`, replacing whatever was there: the manifest
//! and snapshot files, whose rename is their writer's commit.
//! [`AtomicFile::create_new`] streams into a temporary name of its own
//! writer and hard-links it to `path`, which fails with `AlreadyExists`
//! if the name is taken: of two writers racing for one name, exactly
//! one publishes, and the other's bytes never reach the winner's file.
//! Every layout member (shard and overlay) is published this way, under
//! a name no live manifest uses. A writer that publishes several files
//! before one commit links all but the last without the directory fsync
//! (`commit_unsynced`): the last one's makes every link durable.
//!
//! Every step that changes the file system — creating the temporary
//! file, each write into it, the fsyncs, the rename or link, each unlink
//! — is one step a crash-point test can cut (`crash::at` under
//! `#[cfg(test)]`).

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes buffered before a `write` call. Region blocks of tens of KB
/// went straight through the default 8 KiB buffer, one call per block;
/// this batches a dozen or more of them into a call.
const WRITE_BUFFER: usize = 256 << 10;

/// A file that becomes visible at its path only on
/// [`AtomicFile::commit`].
pub struct AtomicFile {
    out: BufWriter<Tmp>,
    tmp: PathBuf,
    path: PathBuf,
    /// Publish by hard link (never replacing a name) instead of rename.
    exclusive: bool,
}

/// The temporary file a publish streams into, with the crash plan of
/// the thread that created it: a commit on another thread takes its
/// steps from the same plan.
struct Tmp {
    file: File,
    steps: Steps,
}

impl Write for Tmp {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.steps.take()?;
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl AtomicFile {
    /// Start writing what will be published at `path`, replacing any
    /// file there (into `path + ".tmp"`, truncating a leftover one).
    pub fn create(path: &Path) -> io::Result<AtomicFile> {
        let steps = Steps::current();
        let tmp = sibling(path, ".tmp");
        steps.take()?;
        let file = File::create(&tmp)?;
        Ok(AtomicFile::over(file, steps, tmp, path, false))
    }

    /// Start writing what will be published at `path` only if nothing
    /// is there by then: [`AtomicFile::commit`] fails with
    /// `AlreadyExists` instead of replacing a file. The temporary file's
    /// name is this writer's own (`path + ".<pid>-<n>.tmp"`), so two
    /// writers of one `path` never share one.
    pub fn create_new(path: &Path) -> io::Result<AtomicFile> {
        static WRITERS: AtomicU64 = AtomicU64::new(0);
        let steps = Steps::current();
        let n = WRITERS.fetch_add(1, Ordering::Relaxed);
        let tmp = sibling(path, &format!(".{}-{n}.tmp", std::process::id()));
        // A leftover of an earlier process under this name is unlinked,
        // never truncated: after a crash between link and unlink it is a
        // second name of a published file.
        steps.take()?;
        match fs::remove_file(&tmp) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        steps.take()?;
        let file = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        Ok(AtomicFile::over(file, steps, tmp, path, true))
    }

    fn over(file: File, steps: Steps, tmp: PathBuf, path: &Path, exclusive: bool) -> AtomicFile {
        AtomicFile {
            out: BufWriter::with_capacity(WRITE_BUFFER, Tmp { file, steps }),
            tmp,
            path: path.to_path_buf(),
            exclusive,
        }
    }

    /// Make everything written durable, then visible at the path, then
    /// fsync its directory. A file from [`AtomicFile::create_new`] whose
    /// name was taken fails with `AlreadyExists`, leaves the file there
    /// untouched and removes its own temporary file. Once the file is
    /// visible the commit is `Ok`, even if its temporary name could not
    /// be removed.
    pub fn commit(mut self) -> io::Result<()> {
        self.commit_unsynced()?;
        // Directory handles cannot be fsynced on every platform, so
        // best-effort.
        let _ = sync_dir_of(&self.path, &self.out.get_ref().steps);
        Ok(())
    }

    /// [`AtomicFile::commit`] without the directory fsync: for a file
    /// whose link a later commit in the same directory makes durable,
    /// before whatever names them is committed.
    pub(crate) fn commit_unsynced(&mut self) -> io::Result<()> {
        self.out.flush()?;
        let Tmp { file, steps } = self.out.get_ref();
        steps.take()?;
        file.sync_all()?;
        steps.take()?;
        if self.exclusive {
            if let Err(e) = fs::hard_link(&self.tmp, &self.path) {
                let _ = steps.take().and_then(|()| fs::remove_file(&self.tmp));
                return Err(e);
            }
            // Published: a temporary name left behind is a leftover
            // for the next sweep, not a failed publish.
            let _ = steps.take().and_then(|()| fs::remove_file(&self.tmp));
            Ok(())
        } else {
            fs::rename(&self.tmp, &self.path)
        }
    }
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Fsync the directory that holds `path`: every link and rename made in
/// it so far is durable.
fn sync_dir_of(path: &Path, steps: &Steps) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    steps.take()?;
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Unlink every file of `dir` whose name `doomed` picks. No fsync
/// follows: what a crash brings back is picked again next time.
pub(crate) fn remove_each(dir: &Path, doomed: impl Fn(&str) -> bool) -> io::Result<()> {
    let steps = Steps::current();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.file_name().and_then(|n| n.to_str()).is_some_and(&doomed) {
            steps.take()?;
            fs::remove_file(&path)?;
        }
    }
    Ok(())
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

/// The crash plan a step is taken from: the calling thread's when a
/// file is created, carried by the file from then on. Outside tests it
/// is empty and every step goes ahead.
#[derive(Default)]
struct Steps {
    #[cfg(test)]
    plan: Option<std::sync::Arc<crash::Countdown>>,
}

impl Steps {
    fn current() -> Steps {
        Steps {
            #[cfg(test)]
            plan: crash::current(),
        }
    }

    /// Go ahead with one step, or fail it as a crash would.
    fn take(&self) -> io::Result<()> {
        #[cfg(test)]
        if let Some(plan) = &self.plan {
            return plan.take();
        }
        Ok(())
    }
}

/// Crash points for tests: [`crash::at`] runs an operation that dies at
/// its `k`-th file-system step. That step and every later one fail
/// without touching the disk, as if the process had stopped there;
/// whatever is on disk then is what a crash at that point leaves.
#[cfg(test)]
pub(crate) mod crash {
    use std::cell::RefCell;
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    pub(crate) struct Countdown {
        left: AtomicU64,
        fired: AtomicBool,
    }

    impl Countdown {
        pub(super) fn take(&self) -> io::Result<()> {
            let going = self
                .left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if going {
                return Ok(());
            }
            self.fired.store(true, Ordering::SeqCst);
            Err(io::Error::other("simulated crash"))
        }
    }

    thread_local! {
        static PLAN: RefCell<Option<Arc<Countdown>>> = const { RefCell::new(None) };
    }

    pub(super) fn current() -> Option<Arc<Countdown>> {
        PLAN.with(|p| p.borrow().clone())
    }

    /// Run `op` so that its step `k` (from 0) and every later one fail;
    /// true beside its result when a step did, false when `op` took
    /// fewer than `k + 1` steps and so ran whole.
    pub(crate) fn at<T>(k: u64, op: impl FnOnce() -> T) -> (T, bool) {
        let plan = Arc::new(Countdown {
            left: AtomicU64::new(k),
            fired: AtomicBool::new(false),
        });
        PLAN.with(|p| *p.borrow_mut() = Some(Arc::clone(&plan)));
        let out = op();
        PLAN.with(|p| *p.borrow_mut() = None);
        (out, plan.fired.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bw_atomic_test").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Two writers of one name: the first to commit publishes, the
    /// second fails with `AlreadyExists`, and the file holds the first
    /// one's bytes whichever wrote last. No temporary file is left.
    #[test]
    fn an_exclusive_publish_never_replaces_a_name() {
        let dir = tmp_dir("exclusive");
        let path = dir.join("f");
        let (mut a, mut b) = (
            AtomicFile::create_new(&path).unwrap(),
            AtomicFile::create_new(&path).unwrap(),
        );
        a.write_all(b"first").unwrap();
        b.write_all(b"second, longer").unwrap();
        a.commit().unwrap();
        let err = b.commit().expect_err("a taken name replaced");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        assert_eq!(fs::read(&path).unwrap(), b"first");
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["f"]);
        fs::remove_dir_all(&dir).ok();
    }

    /// Every step of a commit is a crash point, and each one leaves the
    /// old file or the new one at the path, never a part. The commit is
    /// `Ok` exactly when the new file is there: a publish that landed is
    /// never reported as failed.
    #[test]
    fn a_crash_at_any_step_leaves_the_old_file_or_the_new_one() {
        let dir = tmp_dir("crash");
        let path = dir.join("f");
        for exclusive in [false, true] {
            let mut k = 0;
            loop {
                fs::write(&path, b"old").unwrap();
                if exclusive {
                    fs::remove_file(&path).unwrap();
                }
                let (done, fired) = crash::at(k, || {
                    let mut f = if exclusive {
                        AtomicFile::create_new(&path)?
                    } else {
                        AtomicFile::create(&path)?
                    };
                    f.write_all(b"new bytes")?;
                    f.commit()
                });
                let now = fs::read(&path).ok();
                let old = (!exclusive).then(|| b"old".to_vec());
                let published = now.as_deref() == Some(b"new bytes");
                assert!(now == old || published, "step {k}: {now:?}");
                assert_eq!(done.is_ok(), published, "step {k}: {done:?}");
                if !fired {
                    done.unwrap();
                    assert!(k >= 5, "a commit has at least five steps, saw {k}");
                    break;
                }
                k += 1;
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}
