//! The filesystem namespace: an inode tree with files, directories,
//! write leases and per-file block lists.
//!
//! Mirrors the namenode-side checks of §II step 1: existence, overwrite
//! permission and safe mode are all enforced here. Files are created
//! *under construction* holding a lease for the creating client; blocks
//! are appended as the client's `addBlock` calls commit previous blocks;
//! `complete` seals the file once every block is acked.

use smarth_core::config::WriteMode;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, ClientId, ExtendedBlock, FileId, IdGenerator};
use smarth_core::proto::FileStatus;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug)]
struct FileMeta {
    path: String,
    replication: u32,
    block_size: u64,
    mode: WriteMode,
    /// Lease holder while under construction.
    lease: Option<ClientId>,
    blocks: Vec<ExtendedBlock>,
    /// Positions in `blocks`, ascending, that abandoned blocks vacated
    /// while later blocks already stood behind them. The next
    /// allocations fill them, so a block the client lost entirely and
    /// writes again keeps its place in the file.
    vacated: Vec<usize>,
    complete: bool,
}

#[derive(Debug)]
enum INode {
    Dir { children: BTreeMap<String, FileId> },
    File(FileMeta),
}

/// The namespace tree. All methods take `&mut self`; the server wraps the
/// namespace in a mutex (one per volume shard — the id generator is
/// shared across shards so file ids stay globally unique and the
/// sequence is identical whatever the shard count).
#[derive(Debug)]
pub struct FsNamespace {
    inodes: HashMap<FileId, INode>,
    root: FileId,
    ids: Arc<IdGenerator>,
    safe_mode: bool,
}

/// A file detached from one namespace mid-rename, ready to attach under
/// a new path — possibly in a different shard's namespace. Opaque: the
/// inode id and metadata travel together so a cross-shard move cannot
/// lose either.
#[derive(Debug)]
pub struct DetachedFile {
    id: FileId,
    meta: FileMeta,
}

impl DetachedFile {
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The file's blocks, for moving its block records between shard
    /// block managers.
    pub fn blocks(&self) -> &[ExtendedBlock] {
        &self.meta.blocks
    }
}

/// A file the namespace let go of: its id and the blocks the caller still
/// has to retire.
pub type RemovedFile = (FileId, Vec<ExtendedBlock>);

/// Splits a normalized absolute path into components.
fn components(path: &str) -> DfsResult<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(DfsError::NotFound(format!("path must be absolute: {path}")));
    }
    Ok(path
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect())
}

impl Default for FsNamespace {
    fn default() -> Self {
        Self::new()
    }
}

impl FsNamespace {
    pub fn new() -> Self {
        Self::with_shared_ids(Arc::new(IdGenerator::starting_at(2)))
    }

    /// Builds a namespace drawing file ids from a shared generator.
    /// Every shard of a sharded namenode uses the same generator, so
    /// the allocated id sequence is identical to the single-shard one
    /// under serial traffic. The root keeps the reserved `FileId(1)` in
    /// every shard — it is never handed to clients, so the duplication
    /// across shards is invisible.
    pub fn with_shared_ids(ids: Arc<IdGenerator>) -> Self {
        let root = FileId(1);
        let mut inodes = HashMap::new();
        inodes.insert(
            root,
            INode::Dir {
                children: BTreeMap::new(),
            },
        );
        Self {
            inodes,
            root,
            ids,
            safe_mode: false,
        }
    }

    /// Enables/disables safe mode: while enabled every mutation fails
    /// (§II step 1 check).
    pub fn set_safe_mode(&mut self, on: bool) {
        self.safe_mode = on;
    }

    pub fn safe_mode(&self) -> bool {
        self.safe_mode
    }

    fn check_mutable(&self) -> DfsResult<()> {
        if self.safe_mode {
            Err(DfsError::SafeMode)
        } else {
            Ok(())
        }
    }

    /// Resolves a path to an inode id.
    fn resolve(&self, path: &str) -> DfsResult<FileId> {
        let mut cur = self.root;
        for comp in components(path)? {
            match self.inodes.get(&cur) {
                Some(INode::Dir { children }) => {
                    cur = *children
                        .get(comp)
                        .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
                }
                Some(INode::File(_)) => {
                    return Err(DfsError::NotADirectory(path.to_string()))
                }
                None => return Err(DfsError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    /// Creates (or returns) the directory chain for every parent of
    /// `path`, returning the immediate parent's id and the final name.
    fn ensure_parents<'p>(&mut self, path: &'p str) -> DfsResult<(FileId, &'p str)> {
        let comps = components(path)?;
        let Some((name, parents)) = comps.split_last() else {
            return Err(DfsError::IsADirectory("/".into()));
        };
        let mut cur = self.root;
        for comp in parents {
            let next = match self.inodes.get(&cur) {
                Some(INode::Dir { children }) => children.get(*comp).copied(),
                _ => return Err(DfsError::NotADirectory(path.to_string())),
            };
            cur = match next {
                Some(id) => match self.inodes.get(&id) {
                    Some(INode::Dir { .. }) => id,
                    _ => return Err(DfsError::NotADirectory(path.to_string())),
                },
                None => {
                    let id = FileId(self.ids.allocate());
                    self.inodes.insert(
                        id,
                        INode::Dir {
                            children: BTreeMap::new(),
                        },
                    );
                    match self.inodes.get_mut(&cur) {
                        Some(INode::Dir { children }) => {
                            children.insert((*comp).to_string(), id);
                        }
                        _ => unreachable!("cur is always a dir"),
                    }
                    id
                }
            };
        }
        Ok((cur, name))
    }

    /// §II step 1: the `create()` RPC. Also returns the file an
    /// `overwrite` displaced, for the caller to retire as after
    /// [`Self::delete_file`].
    pub fn create_file(
        &mut self,
        client: ClientId,
        path: &str,
        replication: u32,
        block_size: u64,
        mode: WriteMode,
        overwrite: bool,
    ) -> DfsResult<(FileId, Option<RemovedFile>)> {
        self.check_mutable()?;
        if replication == 0 || block_size == 0 {
            return Err(DfsError::internal("replication/block_size must be > 0"));
        }
        let (parent, name) = self.ensure_parents(path)?;
        let existing = match self.inodes.get(&parent) {
            Some(INode::Dir { children }) => children.get(name).copied(),
            _ => unreachable!(),
        };
        let mut displaced = None;
        if let Some(id) = existing {
            match self.inodes.get(&id) {
                Some(INode::File(meta)) if overwrite => {
                    displaced = Some((id, meta.blocks.clone()));
                    self.remove_inode(parent, name);
                }
                Some(INode::File(_)) => {
                    return Err(DfsError::AlreadyExists(path.to_string()))
                }
                _ => return Err(DfsError::IsADirectory(path.to_string())),
            }
        }
        let id = FileId(self.ids.allocate());
        self.inodes.insert(
            id,
            INode::File(FileMeta {
                path: path.to_string(),
                replication,
                block_size,
                mode,
                lease: Some(client),
                blocks: Vec::new(),
                vacated: Vec::new(),
                complete: false,
            }),
        );
        match self.inodes.get_mut(&parent) {
            Some(INode::Dir { children }) => {
                children.insert(name.to_string(), id);
            }
            _ => unreachable!(),
        }
        Ok((id, displaced))
    }

    fn remove_inode(&mut self, parent: FileId, name: &str) {
        let removed = match self.inodes.get_mut(&parent) {
            Some(INode::Dir { children }) => children.remove(name),
            _ => None,
        };
        if let Some(id) = removed {
            self.inodes.remove(&id);
        }
    }

    fn file_mut(&mut self, file: FileId) -> DfsResult<&mut FileMeta> {
        match self.inodes.get_mut(&file) {
            Some(INode::File(meta)) => Ok(meta),
            _ => Err(DfsError::NotFound(format!("{file}"))),
        }
    }

    fn file_ref(&self, file: FileId) -> DfsResult<&FileMeta> {
        match self.inodes.get(&file) {
            Some(INode::File(meta)) => Ok(meta),
            _ => Err(DfsError::NotFound(format!("{file}"))),
        }
    }

    fn check_lease(meta: &FileMeta, client: ClientId) -> DfsResult<()> {
        match meta.lease {
            Some(holder) if holder == client => Ok(()),
            _ => Err(DfsError::LeaseExpired(meta.path.clone())),
        }
    }

    /// Adds a freshly allocated block to a file under construction: at
    /// the end, or in the earliest place an abandoned block left behind.
    pub fn append_block(
        &mut self,
        client: ClientId,
        file: FileId,
        block: ExtendedBlock,
    ) -> DfsResult<()> {
        self.check_mutable()?;
        let meta = self.file_mut(file)?;
        Self::check_lease(meta, client)?;
        if meta.complete {
            return Err(DfsError::internal(format!(
                "append to completed file {}",
                meta.path
            )));
        }
        if meta.vacated.is_empty() {
            meta.blocks.push(block);
        } else {
            let at = meta.vacated.remove(0);
            meta.blocks.insert(at, block);
            meta.vacated.iter_mut().for_each(|v| *v += 1);
        }
        Ok(())
    }

    /// Updates a block in place (commit with final length, or generation
    /// bump after recovery).
    pub fn update_block(
        &mut self,
        client: ClientId,
        file: FileId,
        block: ExtendedBlock,
    ) -> DfsResult<()> {
        self.check_mutable()?;
        let meta = self.file_mut(file)?;
        Self::check_lease(meta, client)?;
        match meta.blocks.iter_mut().find(|b| b.id == block.id) {
            Some(slot) => {
                *slot = block;
                Ok(())
            }
            None => Err(DfsError::UnknownBlock(block.id)),
        }
    }

    /// Removes an abandoned block, remembering its place if later blocks
    /// already follow it.
    pub fn remove_block(
        &mut self,
        client: ClientId,
        file: FileId,
        block: BlockId,
    ) -> DfsResult<()> {
        self.check_mutable()?;
        let meta = self.file_mut(file)?;
        Self::check_lease(meta, client)?;
        let Some(at) = meta.blocks.iter().position(|b| b.id == block) else {
            return Err(DfsError::UnknownBlock(block));
        };
        meta.blocks.remove(at);
        meta.vacated.iter_mut().filter(|v| **v > at).for_each(|v| *v -= 1);
        if at < meta.blocks.len() {
            let slot = meta.vacated.partition_point(|&v| v < at);
            meta.vacated.insert(slot, at);
        }
        Ok(())
    }

    /// §II step 6: seals the file and releases the lease.
    pub fn complete_file(
        &mut self,
        client: ClientId,
        file: FileId,
        last: Option<ExtendedBlock>,
    ) -> DfsResult<()> {
        self.check_mutable()?;
        let meta = self.file_mut(file)?;
        Self::check_lease(meta, client)?;
        if let Some(last) = last {
            match meta.blocks.iter_mut().find(|b| b.id == last.id) {
                Some(slot) => *slot = last,
                None => return Err(DfsError::UnknownBlock(last.id)),
            }
        }
        meta.complete = true;
        meta.lease = None;
        Ok(())
    }

    /// Block list of a file (for `getBlockLocations`).
    pub fn blocks_of(&self, file: FileId) -> DfsResult<Vec<ExtendedBlock>> {
        Ok(self.file_ref(file)?.blocks.clone())
    }

    /// Write mode recorded at create time.
    pub fn mode_of(&self, file: FileId) -> DfsResult<WriteMode> {
        Ok(self.file_ref(file)?.mode)
    }

    pub fn replication_of(&self, file: FileId) -> DfsResult<u32> {
        Ok(self.file_ref(file)?.replication)
    }

    pub(crate) fn status_of(&self, id: FileId) -> Option<FileStatus> {
        match self.inodes.get(&id)? {
            INode::File(meta) => Some(FileStatus {
                file_id: id,
                path: meta.path.clone(),
                len: meta.blocks.iter().map(|b| b.len).sum(),
                replication: meta.replication,
                block_size: meta.block_size,
                is_dir: false,
                complete: meta.complete,
            }),
            INode::Dir { .. } => Some(FileStatus {
                file_id: id,
                path: String::new(),
                len: 0,
                replication: 0,
                block_size: 0,
                is_dir: true,
                complete: true,
            }),
        }
    }

    /// `getFileInfo`: `None` when the path does not exist.
    pub fn get_file_info(&self, path: &str) -> Option<FileStatus> {
        let id = self.resolve(path).ok()?;
        let mut st = self.status_of(id)?;
        if st.is_dir {
            st.path = path.to_string();
        }
        Some(st)
    }

    pub fn resolve_file(&self, path: &str) -> DfsResult<FileId> {
        let id = self.resolve(path)?;
        match self.inodes.get(&id) {
            Some(INode::File(_)) => Ok(id),
            _ => Err(DfsError::IsADirectory(path.to_string())),
        }
    }

    /// Directory listing, sorted by name.
    pub fn list(&self, path: &str) -> DfsResult<Vec<FileStatus>> {
        let id = self.resolve(path)?;
        match self.inodes.get(&id) {
            Some(INode::Dir { children }) => Ok(children
                .iter()
                .filter_map(|(name, id)| {
                    let mut st = self.status_of(*id)?;
                    if st.is_dir {
                        st.path = format!("{}/{name}", path.trim_end_matches('/'));
                    }
                    Some(st)
                })
                .collect()),
            Some(INode::File(_)) => Ok(vec![self.status_of(id).expect("file status")]),
            None => Err(DfsError::NotFound(path.to_string())),
        }
    }

    /// Deletes a file (not directories, mirroring `hdfs dfs -rm`).
    /// Returns the removed file's id and blocks so the caller can retire
    /// them (and drop its shard routing entries), or `None` if the path
    /// did not exist.
    pub fn delete_file(&mut self, path: &str) -> DfsResult<Option<RemovedFile>> {
        self.check_mutable()?;
        let Ok(comps) = components(path) else {
            return Ok(None);
        };
        let Some((name, _)) = comps.split_last() else {
            return Err(DfsError::IsADirectory("/".into()));
        };
        let Ok(id) = self.resolve(path) else {
            return Ok(None);
        };
        let blocks = match self.inodes.get(&id) {
            Some(INode::File(meta)) => meta.blocks.clone(),
            Some(INode::Dir { .. }) => return Err(DfsError::IsADirectory(path.to_string())),
            None => return Ok(None),
        };
        // Find the parent by resolving the prefix.
        let parent_path: String = {
            let joined = comps[..comps.len() - 1].join("/");
            format!("/{joined}")
        };
        let parent = self.resolve(&parent_path)?;
        self.remove_inode(parent, name);
        Ok(Some((id, blocks)))
    }

    /// First half of a rename: unlinks `src` (a complete file) and
    /// returns its inode for [`FsNamespace::attach_file`] — on this
    /// namespace for a same-shard rename, or on another shard's. The
    /// caller should run [`FsNamespace::check_attach`] on the
    /// destination namespace *first*: attach after a passing check
    /// cannot fail, so the file is never stranded.
    pub fn detach_file(&mut self, src: &str) -> DfsResult<DetachedFile> {
        self.check_mutable()?;
        let comps = components(src)?;
        let Some((name, _)) = comps.split_last() else {
            return Err(DfsError::IsADirectory("/".into()));
        };
        let id = self.resolve(src)?;
        match self.inodes.get(&id) {
            Some(INode::File(meta)) if !meta.complete => {
                return Err(DfsError::LeaseExpired(format!(
                    "rename of file under construction: {src}"
                )))
            }
            Some(INode::File(_)) => {}
            _ => return Err(DfsError::IsADirectory(src.to_string())),
        }
        let parent_path: String = {
            let joined = comps[..comps.len() - 1].join("/");
            format!("/{joined}")
        };
        let parent = self.resolve(&parent_path)?;
        match self.inodes.get_mut(&parent) {
            Some(INode::Dir { children }) => {
                children.remove(*name);
            }
            _ => unreachable!("resolved parent is always a dir"),
        }
        let Some(INode::File(meta)) = self.inodes.remove(&id) else {
            unreachable!("id was checked to be a file above");
        };
        Ok(DetachedFile { id, meta })
    }

    /// Non-mutating preflight for [`FsNamespace::attach_file`]: fails if
    /// `dst` already exists, or a parent component is a file. Missing
    /// parent directories are fine — attach creates them.
    pub fn check_attach(&self, dst: &str) -> DfsResult<()> {
        self.check_mutable()?;
        let comps = components(dst)?;
        let Some((name, parents)) = comps.split_last() else {
            return Err(DfsError::IsADirectory("/".into()));
        };
        let mut cur = self.root;
        for comp in parents {
            let next = match self.inodes.get(&cur) {
                Some(INode::Dir { children }) => children.get(*comp).copied(),
                _ => return Err(DfsError::NotADirectory(dst.to_string())),
            };
            match next {
                Some(id) => match self.inodes.get(&id) {
                    Some(INode::Dir { .. }) => cur = id,
                    _ => return Err(DfsError::NotADirectory(dst.to_string())),
                },
                // The rest of the chain does not exist yet; attach will
                // create it.
                None => return Ok(()),
            }
        }
        match self.inodes.get(&cur) {
            Some(INode::Dir { children }) if children.contains_key(*name) => {
                Err(DfsError::AlreadyExists(dst.to_string()))
            }
            _ => Ok(()),
        }
    }

    /// Second half of a rename: links a detached file at `dst`,
    /// rewriting its recorded path. Run [`FsNamespace::check_attach`]
    /// first; after a passing check (with no interleaved mutation — the
    /// server holds the shard locks across both halves) this cannot
    /// fail.
    pub fn attach_file(&mut self, dst: &str, file: DetachedFile) -> DfsResult<FileId> {
        self.check_mutable()?;
        let (parent, name) = self.ensure_parents(dst)?;
        let exists = match self.inodes.get(&parent) {
            Some(INode::Dir { children }) => children.contains_key(name),
            _ => unreachable!("ensure_parents returns a dir"),
        };
        if exists {
            return Err(DfsError::AlreadyExists(dst.to_string()));
        }
        let DetachedFile { id, mut meta } = file;
        meta.path = dst.to_string();
        self.inodes.insert(id, INode::File(meta));
        match self.inodes.get_mut(&parent) {
            Some(INode::Dir { children }) => {
                children.insert(name.to_string(), id);
            }
            _ => unreachable!(),
        }
        Ok(id)
    }

    /// Number of inodes (diagnostics).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarth_core::ids::GenStamp;

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);

    fn blk(id: u64, len: u64) -> ExtendedBlock {
        ExtendedBlock::new(BlockId(id), GenStamp::INITIAL, len)
    }

    fn ns_with_file() -> (FsNamespace, FileId) {
        let mut ns = FsNamespace::new();
        let f = ns
            .create_file(C1, "/data/file.bin", 3, 64, WriteMode::Smarth, false)
            .unwrap()
            .0;
        (ns, f)
    }

    #[test]
    fn create_builds_parent_directories() {
        let (ns, _) = ns_with_file();
        let info = ns.get_file_info("/data").unwrap();
        assert!(info.is_dir);
        let file = ns.get_file_info("/data/file.bin").unwrap();
        assert!(!file.is_dir);
        assert!(!file.complete);
        assert_eq!(file.replication, 3);
    }

    #[test]
    fn duplicate_create_fails_without_overwrite() {
        let (mut ns, f) = ns_with_file();
        ns.append_block(C1, f, blk(1, 10)).unwrap();
        let err = ns
            .create_file(C1, "/data/file.bin", 3, 64, WriteMode::Hdfs, false)
            .unwrap_err();
        assert!(matches!(err, DfsError::AlreadyExists(_)));
        // Overwrite replaces the file and hands the old one back.
        let (f2, displaced) = ns
            .create_file(C1, "/data/file.bin", 2, 64, WriteMode::Hdfs, true)
            .unwrap();
        assert_eq!(displaced, Some((f, vec![blk(1, 10)])));
        assert!(ns.blocks_of(f).is_err(), "the old inode is gone");
        assert_eq!(ns.replication_of(f2).unwrap(), 2);
        assert_eq!(ns.mode_of(f2).unwrap(), WriteMode::Hdfs);
    }

    #[test]
    fn create_over_directory_fails() {
        let (mut ns, _) = ns_with_file();
        let err = ns
            .create_file(C1, "/data", 3, 64, WriteMode::Hdfs, true)
            .unwrap_err();
        assert!(matches!(err, DfsError::IsADirectory(_)));
    }

    #[test]
    fn file_as_path_component_fails() {
        let (mut ns, _) = ns_with_file();
        let err = ns
            .create_file(C1, "/data/file.bin/sub", 3, 64, WriteMode::Hdfs, false)
            .unwrap_err();
        assert!(matches!(err, DfsError::NotADirectory(_)));
    }

    #[test]
    fn relative_paths_rejected() {
        let mut ns = FsNamespace::new();
        assert!(ns
            .create_file(C1, "relative/path", 3, 64, WriteMode::Hdfs, false)
            .is_err());
    }

    #[test]
    fn safe_mode_blocks_mutations() {
        let (mut ns, f) = ns_with_file();
        ns.set_safe_mode(true);
        assert!(matches!(
            ns.create_file(C1, "/x", 3, 64, WriteMode::Hdfs, false),
            Err(DfsError::SafeMode)
        ));
        assert!(matches!(
            ns.append_block(C1, f, blk(1, 0)),
            Err(DfsError::SafeMode)
        ));
        assert!(matches!(ns.delete_file("/data/file.bin"), Err(DfsError::SafeMode)));
        // Reads still work.
        assert!(ns.get_file_info("/data/file.bin").is_some());
        ns.set_safe_mode(false);
        ns.append_block(C1, f, blk(1, 0)).unwrap();
    }

    #[test]
    fn lease_enforcement() {
        let (mut ns, f) = ns_with_file();
        assert!(matches!(
            ns.append_block(C2, f, blk(1, 0)),
            Err(DfsError::LeaseExpired(_))
        ));
        ns.append_block(C1, f, blk(1, 64)).unwrap();
        ns.complete_file(C1, f, None).unwrap();
        // After completion the lease is gone — even C1 cannot append.
        assert!(ns.append_block(C1, f, blk(2, 0)).is_err());
    }

    #[test]
    fn block_lifecycle_and_length() {
        let (mut ns, f) = ns_with_file();
        ns.append_block(C1, f, blk(1, 0)).unwrap();
        ns.update_block(C1, f, blk(1, 64)).unwrap();
        ns.append_block(C1, f, blk(2, 0)).unwrap();
        ns.complete_file(C1, f, Some(blk(2, 40))).unwrap();
        let info = ns.get_file_info("/data/file.bin").unwrap();
        assert!(info.complete);
        assert_eq!(info.len, 104);
        let blocks = ns.blocks_of(f).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].len, 40);
    }

    #[test]
    fn update_unknown_block_fails() {
        let (mut ns, f) = ns_with_file();
        assert!(matches!(
            ns.update_block(C1, f, blk(9, 1)),
            Err(DfsError::UnknownBlock(BlockId(9)))
        ));
    }

    #[test]
    fn abandon_block_removes_it() {
        let (mut ns, f) = ns_with_file();
        ns.append_block(C1, f, blk(1, 0)).unwrap();
        ns.remove_block(C1, f, BlockId(1)).unwrap();
        assert!(ns.blocks_of(f).unwrap().is_empty());
        assert!(ns.remove_block(C1, f, BlockId(1)).is_err());
    }

    #[test]
    fn abandoned_place_is_refilled_in_file_order() {
        let ids = |ns: &FsNamespace, f| -> Vec<u64> {
            ns.blocks_of(f).unwrap().iter().map(|b| b.id.raw()).collect()
        };
        let (mut ns, f) = ns_with_file();
        for id in 1..=4 {
            ns.append_block(C1, f, blk(id, 0)).unwrap();
        }
        // Block 2 is lost and written again while 3 and 4 exist.
        ns.remove_block(C1, f, BlockId(2)).unwrap();
        ns.append_block(C1, f, blk(5, 0)).unwrap();
        assert_eq!(ids(&ns, f), [1, 5, 3, 4]);
        // Two neighbours lost before either is replaced; then the tail.
        ns.remove_block(C1, f, BlockId(5)).unwrap();
        ns.remove_block(C1, f, BlockId(3)).unwrap();
        ns.append_block(C1, f, blk(6, 0)).unwrap();
        ns.append_block(C1, f, blk(7, 0)).unwrap();
        assert_eq!(ids(&ns, f), [1, 6, 7, 4]);
        // An earlier block goes while a later place is still open.
        ns.remove_block(C1, f, BlockId(7)).unwrap();
        ns.remove_block(C1, f, BlockId(1)).unwrap();
        ns.append_block(C1, f, blk(8, 0)).unwrap();
        ns.append_block(C1, f, blk(9, 0)).unwrap();
        assert_eq!(ids(&ns, f), [8, 6, 9, 4]);
        // The last block leaves no place behind: the next one is appended.
        ns.remove_block(C1, f, BlockId(4)).unwrap();
        ns.append_block(C1, f, blk(10, 0)).unwrap();
        ns.append_block(C1, f, blk(11, 0)).unwrap();
        assert_eq!(ids(&ns, f), [8, 6, 9, 10, 11]);
    }

    #[test]
    fn listing_and_delete() {
        let (mut ns, _) = ns_with_file();
        ns.create_file(C1, "/data/other.bin", 3, 64, WriteMode::Hdfs, false)
            .unwrap();
        let entries = ns.list("/data").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "/data/file.bin");
        assert_eq!(entries[1].path, "/data/other.bin");

        let removed = ns.delete_file("/data/file.bin").unwrap();
        assert!(removed.is_some());
        assert!(ns.get_file_info("/data/file.bin").is_none());
        assert_eq!(ns.delete_file("/data/file.bin").unwrap(), None);
        assert!(matches!(
            ns.delete_file("/data"),
            Err(DfsError::IsADirectory(_))
        ));
    }

    #[test]
    fn detach_attach_renames_within_and_across_namespaces() {
        let (mut ns, f) = ns_with_file();
        ns.append_block(C1, f, blk(1, 64)).unwrap();
        ns.complete_file(C1, f, None).unwrap();

        // Same-namespace rename.
        ns.check_attach("/moved/here.bin").unwrap();
        let d = ns.detach_file("/data/file.bin").unwrap();
        assert_eq!(d.id(), f);
        assert_eq!(d.blocks().len(), 1);
        let id = ns.attach_file("/moved/here.bin", d).unwrap();
        assert_eq!(id, f);
        assert!(ns.get_file_info("/data/file.bin").is_none());
        let st = ns.get_file_info("/moved/here.bin").unwrap();
        assert_eq!(st.path, "/moved/here.bin");
        assert_eq!(st.len, 64);

        // Cross-namespace move (what a cross-shard rename does).
        let mut other = FsNamespace::new();
        other.check_attach("/far/away.bin").unwrap();
        let d = ns.detach_file("/moved/here.bin").unwrap();
        other.attach_file("/far/away.bin", d).unwrap();
        assert!(ns.get_file_info("/moved/here.bin").is_none());
        assert_eq!(other.get_file_info("/far/away.bin").unwrap().len, 64);

        // Destination collisions and bad parents are caught up front.
        assert!(matches!(
            other.check_attach("/far/away.bin"),
            Err(DfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            other.check_attach("/far/away.bin/sub"),
            Err(DfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn detach_rejects_open_files_and_directories() {
        let (mut ns, _) = ns_with_file();
        assert!(matches!(
            ns.detach_file("/data/file.bin"),
            Err(DfsError::LeaseExpired(_))
        ));
        assert!(matches!(
            ns.detach_file("/data"),
            Err(DfsError::IsADirectory(_))
        ));
        assert!(matches!(
            ns.detach_file("/ghost"),
            Err(DfsError::NotFound(_))
        ));
    }

    #[test]
    fn shared_ids_never_collide_across_namespaces() {
        let ids = Arc::new(IdGenerator::starting_at(2));
        let mut a = FsNamespace::with_shared_ids(ids.clone());
        let mut b = FsNamespace::with_shared_ids(ids);
        let fa = a
            .create_file(C1, "/va/f", 1, 64, WriteMode::Smarth, false)
            .unwrap()
            .0;
        let fb = b
            .create_file(C1, "/vb/f", 1, 64, WriteMode::Smarth, false)
            .unwrap()
            .0;
        assert_ne!(fa, fb, "shards draw from one id space");
    }

    #[test]
    fn listing_root() {
        let (ns, _) = ns_with_file();
        let entries = ns.list("/").unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].is_dir);
        assert_eq!(entries[0].path, "/data");
    }

    #[test]
    fn resolve_file_rejects_directories() {
        let (ns, _) = ns_with_file();
        assert!(ns.resolve_file("/data/file.bin").is_ok());
        assert!(matches!(
            ns.resolve_file("/data"),
            Err(DfsError::IsADirectory(_))
        ));
        assert!(matches!(
            ns.resolve_file("/ghost"),
            Err(DfsError::NotFound(_))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use smarth_core::ids::GenStamp;

    fn path_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-z]{1,6}", 1..4)
            .prop_map(|parts| format!("/{}", parts.join("/")))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Create → stat → delete is consistent for arbitrary path sets:
        /// everything created is visible with the right metadata, and
        /// after deleting everything no file remains.
        #[test]
        fn create_stat_delete_consistency(paths in proptest::collection::btree_set(path_strategy(), 1..12)) {
            let mut ns = FsNamespace::new();
            let client = ClientId(1);
            let mut created = Vec::new();
            for p in &paths {
                // Some paths may collide with directories created by
                // deeper paths; skip those — the error taxonomy is
                // exercised by the unit tests.
                if let Ok((id, _)) = ns.create_file(client, p, 3, 64, WriteMode::Smarth, false) {
                    ns.append_block(client, id, ExtendedBlock::new(BlockId(id.raw()), GenStamp::INITIAL, 17)).unwrap();
                    ns.complete_file(client, id, None).unwrap();
                    created.push(p.clone());
                }
            }
            for p in &created {
                let info = ns.get_file_info(p).expect("created file must stat");
                prop_assert!(!info.is_dir);
                prop_assert!(info.complete);
                prop_assert_eq!(info.len, 17);
            }
            for p in &created {
                prop_assert!(ns.delete_file(p).unwrap().is_some(), "{} must delete", p);
            }
            for p in &created {
                prop_assert!(ns.get_file_info(p).is_none(), "{} must be gone", p);
            }
        }

        /// Listings always cover exactly the direct children.
        #[test]
        fn listing_matches_creations(names in proptest::collection::btree_set("[a-z]{1,8}", 1..10)) {
            let mut ns = FsNamespace::new();
            let client = ClientId(1);
            for n in &names {
                ns.create_file(client, &format!("/dir/{n}"), 1, 1, WriteMode::Hdfs, false).unwrap();
            }
            let listed: Vec<String> = ns.list("/dir").unwrap().into_iter().map(|e| e.path).collect();
            let expected: Vec<String> = names.iter().map(|n| format!("/dir/{n}")).collect();
            prop_assert_eq!(listed, expected, "sorted listing must equal the created set");
        }
    }
}
