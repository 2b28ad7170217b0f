//! The bytes behind a snapshot: a read-only file mapping, or an owned
//! buffer.
//!
//! The workspace builds without registry access, so instead of the `memmap2`
//! crate this module vendors the two `libc` calls it needs (`mmap` /
//! `munmap`) as in-tree FFI declarations — the same trade `ngd-json` makes
//! for serde.  The wrapper is deliberately tiny: open a file, map it
//! `PROT_READ`/`MAP_SHARED`, expose the bytes as a `&[u8]`, unmap on drop.
//!
//! The second backing is an owned `u64`-aligned buffer ([`OwnedBytes`]):
//! [`crate::Graph::freeze`] lays a snapshot's file bytes out in one and
//! hands it to the same loader a mapped file goes through.  On hosts
//! without a matching `mmap` ABI — non-Unix, and 32-bit Unix targets where
//! `off_t` may be 32-bit and would mismatch the vendored 64-bit
//! declaration — [`MmapFile::open`] reads the file into such a buffer
//! instead: same API, no zero-copy guarantee.

use super::PersistError;
use std::path::Path;

/// A read-only byte view of a snapshot: a file memory-mapped where the
/// platform allows it, or bytes owned on the heap.
///
/// The bytes are immutable for the lifetime of the value and their
/// address never changes (a mapping is never remapped; an owned buffer is
/// never reallocated), so handing out `&[u8]` is sound and a borrow of
/// them stays valid while the value lives, wherever it moves.  Mapped
/// pages are shared read-only, so concurrent readers in other processes
/// are fine too.
#[derive(Debug)]
pub struct MmapFile {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(unix_impl::Mapping),
    Owned(OwnedBytes),
}

impl MmapFile {
    /// Map `path` read-only.
    ///
    /// Fails with [`PersistError::Io`] when the file cannot be opened or
    /// mapped, and with [`PersistError::Truncated`] when it is too small to
    /// even hold a header.
    pub fn open(path: &Path) -> Result<MmapFile, PersistError> {
        let file = std::fs::File::open(path)
            .map_err(|e| PersistError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| PersistError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        if len < super::format::HEADER_LEN as u64 {
            return Err(PersistError::Truncated {
                expected: super::format::HEADER_LEN as u64,
                actual: len,
            });
        }
        let len = usize::try_from(len)
            .map_err(|_| PersistError::Io(format!("{} exceeds address space", path.display())))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        let backing = Backing::Mapped(unix_impl::Mapping::map(&file, len, path)?);
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let backing = {
            use std::io::Read;
            let mut owned = OwnedBytes::zeroed(len);
            (&file)
                .read_exact(owned.bytes_mut())
                .map_err(|e| PersistError::Io(format!("read {}: {e}", path.display())))?;
            Backing::Owned(owned)
        };
        Ok(MmapFile { backing })
    }

    /// Snapshot bytes laid out in memory (see [`crate::Graph::freeze`]).
    pub(crate) fn owned(bytes: OwnedBytes) -> MmapFile {
        MmapFile {
            backing: Backing::Owned(bytes),
        }
    }

    /// The bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(mapping) => mapping.bytes(),
            Backing::Owned(owned) => owned.bytes(),
        }
    }

    /// Length of the bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether there are no bytes (never true for a valid snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Zero-initialised heap bytes backed by `u64`s, so that the 64-byte-aligned
/// sections of a snapshot laid out in them are at least 8-byte aligned in
/// memory.
#[derive(Debug)]
pub(crate) struct OwnedBytes {
    words: Vec<u64>,
    len: usize,
}

impl OwnedBytes {
    pub(crate) fn zeroed(len: usize) -> OwnedBytes {
        OwnedBytes {
            words: vec![0; len.div_ceil(8)],
            len,
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `words` owns `len.div_ceil(8) * 8 >= len` initialised
        // bytes; `u8` has alignment 1 and no invalid bit patterns; the
        // borrow is tied to `self`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, and the unique borrow of `self` makes this
        // the only view of the buffer while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod unix_impl {
    use super::PersistError;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    // Vendored libc surface: just enough of <sys/mman.h> for a read-only
    // shared mapping.  The constants below are identical across the Unix
    // platforms this workspace targets (Linux and the BSD family); the
    // `offset: i64` declaration matches `off_t` only on 64-bit targets,
    // which is why this module is gated on `target_pointer_width = "64"`
    // (32-bit hosts read the file into owned bytes instead of risking a
    // mismatched ABI).
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: `ptr` is the base of a mapping created PROT_READ and never
    // mutated or remapped after construction; `len` is a plain integer.
    // The mapping is tied to no thread, so the owner (and its `munmap` in
    // Drop) may move.
    unsafe impl Send for Mapping {}
    // SAFETY: `&Mapping` only hands out `&[u8]` over those immutable bytes
    // (`bytes()`); no method writes through `ptr`, so shared readers cannot
    // race.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn map(
            file: &std::fs::File,
            len: usize,
            path: &Path,
        ) -> Result<Mapping, PersistError> {
            // SAFETY: fd is a live, readable file descriptor and `len` is
            // its (non-zero) size; the kernel validates everything else and
            // reports failure via MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(PersistError::Io(format!(
                    "mmap {} ({len} bytes): {}",
                    path.display(),
                    std::io::Error::last_os_error()
                )));
            }
            Ok(Mapping {
                ptr: ptr as *const u8,
                len,
            })
        }

        #[inline]
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr + len` is a live PROT_READ mapping owned by
            // `self`; it is unmapped only in Drop, after every borrow ends.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: undoes exactly the mmap performed in `map`.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}
