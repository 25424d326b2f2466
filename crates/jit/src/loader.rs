//! Hand-rolled dynamic loading — `dlopen`/`dlsym` declared directly
//! against the platform C runtime, keeping the workspace std-only (no
//! `libloading`). Libraries are deliberately never `dlclose`d: their
//! function pointers are registered in the process-wide native registry
//! and must stay callable for the life of the process.
//!
//! What stays loaded is the kernels and little else. A JIT artifact is
//! `#![no_std]` (since `JIT_FORMAT_VERSION` 6): it links `core` and libm only,
//! has no thread-local block and no initialiser of its own, and registers
//! no TLS destructor and no `atexit` hook, so it holds no runtime state
//! that an unload would have to tear down.

use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_char;

    // `libdl` on linux-gnu (merged into libc since glibc 2.34, but the
    // explicit link keeps older loaders happy); part of libSystem on the
    // BSDs/macOS, where no extra link is needed.
    #[cfg_attr(target_os = "linux", link(name = "dl"))]
    extern "C" {
        pub fn dlopen(filename: *const c_char, flag: i32) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlerror() -> *mut c_char;
    }

    pub const RTLD_NOW: i32 = 2;

    /// Read the thread-local `dlerror` string (clears it as a side
    /// effect, per POSIX).
    ///
    /// # Safety
    ///
    /// Call it on the thread whose `dlopen`/`dlsym` just failed, before any
    /// other `dl*` call there: the string `dlerror` returns is only valid
    /// until that thread's next `dl*` call, and is copied out before it.
    pub unsafe fn last_error() -> String {
        let p = dlerror();
        if p.is_null() {
            return "unknown dl error".to_string();
        }
        std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
    }
}

/// A loaded shared object. Never unloaded (see module docs).
pub struct Library {
    #[cfg(unix)]
    handle: *mut std::ffi::c_void,
}

// SAFETY: a dlopen handle is a process-global token, not tied to the
// thread that opened it, and this wrapper never closes it.
unsafe impl Send for Library {}
// SAFETY: the only operation on a shared `Library` is `dlsym`, which is
// thread-safe per POSIX.
unsafe impl Sync for Library {}

impl Library {
    /// `dlopen` the object at `path` with immediate binding.
    #[cfg(unix)]
    pub fn open(path: &Path) -> Result<Library, String> {
        use std::os::unix::ffi::OsStrExt;
        let mut bytes = path.as_os_str().as_bytes().to_vec();
        bytes.push(0);
        // SAFETY: `bytes` is NUL-terminated and outlives the call.
        let handle = unsafe { sys::dlopen(bytes.as_ptr() as *const _, sys::RTLD_NOW) };
        if handle.is_null() {
            // SAFETY: dlopen just failed on this thread.
            return Err(unsafe { sys::last_error() });
        }
        Ok(Library { handle })
    }

    #[cfg(not(unix))]
    pub fn open(_path: &Path) -> Result<Library, String> {
        Err("JIT loading is only supported on unix targets".to_string())
    }

    /// Resolve `symbol` (no NUL) to a raw address.
    #[cfg(unix)]
    pub fn sym(&self, symbol: &str) -> Result<*mut std::ffi::c_void, String> {
        let mut bytes = symbol.as_bytes().to_vec();
        bytes.push(0);
        // SAFETY: handle is live (never closed), name NUL-terminated.
        let p = unsafe { sys::dlsym(self.handle, bytes.as_ptr() as *const _) };
        if p.is_null() {
            // SAFETY: dlsym just failed on this thread.
            return Err(unsafe { sys::last_error() });
        }
        Ok(p)
    }

    #[cfg(not(unix))]
    pub fn sym(&self, _symbol: &str) -> Result<*mut std::ffi::c_void, String> {
        Err("JIT loading is only supported on unix targets".to_string())
    }
}
