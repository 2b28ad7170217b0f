//! A minimal safe wrapper over `mmap(2)` for read-only file mappings.
//!
//! The workspace builds without registry access, so instead of the `memmap2`
//! crate this module vendors the two `libc` calls it needs (`mmap` /
//! `munmap`) as in-tree FFI declarations — the same trade `ngd-json` makes
//! for serde.  The wrapper is deliberately tiny: open a file, map it
//! `PROT_READ`/`MAP_SHARED`, expose the bytes as a `&[u8]`, unmap on drop.
//!
//! On hosts without a matching `mmap` ABI — non-Unix, and 32-bit Unix
//! targets where `off_t` may be 32-bit and would mismatch the vendored
//! 64-bit declaration — the type degrades to reading the file into an
//! 8-byte-aligned heap buffer: same API, no zero-copy guarantee, which
//! keeps the persist module portable without `unsafe` platform branches in
//! its callers.

use super::PersistError;
use std::path::Path;

/// A read-only byte view of a file, memory-mapped where the platform
/// allows it.
///
/// The mapping (or buffer) is immutable for the lifetime of the value, so
/// handing out `&[u8]` is sound; the pages are shared read-only, so
/// concurrent readers in other processes are fine too.
#[derive(Debug)]
pub struct MmapFile {
    inner: Inner,
}

// SAFETY: the only non-`Send` field is `Inner::ptr`, the base of a mapping
// created PROT_READ and never mutated or remapped after construction;
// `len` is a plain integer.  The mapping is tied to no thread, so the owner
// (and its `munmap` in Drop) may move.
unsafe impl Send for MmapFile {}
// SAFETY: `&MmapFile` only hands out `&[u8]` over those immutable bytes
// (`bytes()`); no method writes through `ptr`, so shared readers cannot race.
unsafe impl Sync for MmapFile {}

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
        Inner::map(&file, len, path).map(|inner| MmapFile { inner })
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.inner.bytes()
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the mapping is empty (never true for a valid snapshot file).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
use unix_impl::Inner;

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
    // (32-bit hosts take the heap fallback instead of a mismatched ABI).
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
    pub(super) struct Inner {
        ptr: *const u8,
        len: usize,
    }

    impl Inner {
        pub(super) fn map(
            file: &std::fs::File,
            len: usize,
            path: &Path,
        ) -> Result<Inner, PersistError> {
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
            Ok(Inner {
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

    impl Drop for Inner {
        fn drop(&mut self) {
            // SAFETY: undoes exactly the mmap performed in `map`.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
use heap_impl::Inner;

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod heap_impl {
    use super::PersistError;
    use std::io::Read;
    use std::path::Path;

    /// Heap fallback: the file is read into a `u64`-backed buffer so the
    /// 64-byte-aligned sections stay at least 8-byte aligned in memory.
    #[derive(Debug)]
    pub(super) struct Inner {
        buf: Vec<u64>,
        len: usize,
    }

    impl Inner {
        pub(super) fn map(
            file: &std::fs::File,
            len: usize,
            path: &Path,
        ) -> Result<Inner, PersistError> {
            let mut buf = vec![0u64; len.div_ceil(8)];
            // SAFETY: u64 -> u8 reinterpretation of an owned, initialised
            // buffer; lengths match by construction.
            let bytes = unsafe {
                std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, buf.len() * 8)
            };
            let mut handle = file;
            handle
                .read_exact(&mut bytes[..len])
                .map_err(|e| PersistError::Io(format!("read {}: {e}", path.display())))?;
            Ok(Inner { buf, len })
        }

        #[inline]
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: same reinterpretation as in `map`.
            unsafe { std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, self.len) }
        }
    }
}
