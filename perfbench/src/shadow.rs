//! A call-level model of what a connection's clients should find after a
//! crash. It watches every call the connection makes and keeps, per path,
//! the current contents plus every state the path has been in since the
//! last completed sync: after the crash a path must read back as one of
//! those states (the synced one, or any newer one).

use std::collections::HashMap;

use vfs::{DirEntry, FileSystem, FsError, FsResult, Ino, Metadata, StatFs};

use crate::report::Recovery;

#[derive(Default)]
pub struct Shadow {
    files: HashMap<String, Vec<u8>>,
    paths: HashMap<Ino, String>,
    inos: HashMap<String, Ino>,
    /// Per path touched since the last sync: its state at that sync, then
    /// every state after it (`None` = absent).
    since_sync: HashMap<String, Vec<Option<Vec<u8>>>>,
}

impl Shadow {
    fn record(&mut self, path: &str, new: Option<Vec<u8>>) {
        let old = self.files.get(path).cloned();
        self.since_sync
            .entry(path.to_string())
            .or_insert_with(|| vec![old])
            .push(new.clone());
        match new {
            Some(v) => self.files.insert(path.to_string(), v),
            None => self.files.remove(path),
        };
    }

    fn edit(&mut self, ino: Ino, f: impl FnOnce(&mut Vec<u8>)) {
        let Some(path) = self.paths.get(&ino).cloned() else {
            return;
        };
        let mut v = self.files.get(&path).cloned().unwrap_or_default();
        f(&mut v);
        self.record(&path, Some(v));
    }

    /// Checks every tracked path on the recovered file system.
    pub fn check<F: FileSystem>(&self, fs: &mut F, rec: &mut Recovery) {
        let mut paths: Vec<&String> = self.files.keys().chain(self.since_sync.keys()).collect();
        paths.sort();
        paths.dedup();
        for path in paths {
            rec.checked += 1;
            let got = match fs.lookup(path) {
                Ok(ino) => match fs.read_to_vec(ino) {
                    Ok(v) => Some(v),
                    Err(e) => {
                        rec.note_bad(format!("{path}: read failed: {e}"));
                        continue;
                    }
                },
                Err(FsError::NotFound) => None,
                Err(e) => {
                    rec.note_bad(format!("{path}: lookup failed: {e}"));
                    continue;
                }
            };
            let ok = match self.since_sync.get(path) {
                Some(states) => states.contains(&got),
                None => got.as_ref() == self.files.get(path),
            };
            if !ok {
                rec.note_bad(format!(
                    "{path}: found {:?} bytes, not the synced state or a newer one",
                    got.map(|v| v.len())
                ));
            }
        }
    }
}

/// Forwards to `fs`, updating `model` after every successful mutation.
pub struct Shadowed<'a, F> {
    pub fs: &'a mut F,
    pub model: &'a mut Shadow,
}

impl<F: FileSystem> FileSystem for Shadowed<'_, F> {
    fn create(&mut self, path: &str) -> FsResult<Ino> {
        let ino = self.fs.create(path)?;
        self.model.paths.insert(ino, path.to_string());
        self.model.inos.insert(path.to_string(), ino);
        self.model.record(path, Some(Vec::new()));
        Ok(ino)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
        self.fs.mkdir(path)
    }

    fn lookup(&mut self, path: &str) -> FsResult<Ino> {
        self.fs.lookup(path)
    }

    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        self.fs.write(ino, offset, data)?;
        self.model.edit(ino, |v| {
            let (off, end) = (offset as usize, offset as usize + data.len());
            if v.len() < end {
                v.resize(end, 0);
            }
            v[off..end].copy_from_slice(data);
        });
        Ok(())
    }

    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fs.read(ino, offset, buf)
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
        self.fs.truncate(ino, size)?;
        self.model.edit(ino, |v| v.resize(size as usize, 0));
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.fs.unlink(path)?;
        if let Some(ino) = self.model.inos.remove(path) {
            self.model.paths.remove(&ino);
        }
        self.model.record(path, None);
        Ok(())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.fs.rmdir(path)
    }

    fn rename(&mut self, _from: &str, _to: &str) -> FsResult<()> {
        Err(FsError::InvalidArgument(
            "rename is outside the shadow model",
        ))
    }

    fn link(&mut self, _existing: &str, _new: &str) -> FsResult<()> {
        Err(FsError::InvalidArgument("link is outside the shadow model"))
    }

    fn metadata(&mut self, ino: Ino) -> FsResult<Metadata> {
        self.fs.metadata(ino)
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.fs.readdir(path)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.fs.sync()?;
        self.model.since_sync.clear();
        Ok(())
    }

    fn statfs(&mut self) -> FsResult<StatFs> {
        self.fs.statfs()
    }
}
