//! A raw reader for the daemon's length-prefixed frames.
//!
//! `sentinel_serve::read_frame` reads and parses in one call; the
//! benchmark needs the payload bytes on their own, so that it can time
//! `Json::parse_bytes` and count the bytes delivered. [`read_raw`] reads one
//! frame's payload with the same 4-byte big-endian length prefix.

use std::io::{self, Read, Write};

/// Read one frame's payload. `Ok(None)` on a clean end of stream before
/// the length prefix.
///
/// # Errors
///
/// An I/O error, including `UnexpectedEof` for a frame cut short and
/// `InvalidData` for a length of zero or above `max_bytes`.
pub fn read_raw(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 || len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Write `payload` as one frame, whatever its bytes are: the benchmark
/// uses it to send malformed payloads the JSON encoder could never emit.
///
/// # Errors
///
/// Any write error; `InvalidInput` for a payload longer than `u32::MAX`.
pub fn write_raw(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload too long"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}
