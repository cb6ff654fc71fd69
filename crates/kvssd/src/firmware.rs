//! Device-side key-value firmware.
//!
//! A log-structured value store: PUTs append `[key(16) | len(2)]` headers +
//! value bytes into a DRAM staging page; full pages flush to NAND through
//! the FTL (when NAND I/O is enabled). A DELETE appends a tombstone header
//! (`len = u16::MAX`) so recovery cannot resurrect the key. The key index
//! lives in device DRAM: an ordered map from the big-endian `u128` of the
//! padded key (byte-lexicographic order, for the iterator command) to the
//! value's log page and offset. The page being filled is the DRAM staging
//! page, so a flush only advances the log frontier and re-indexes nothing.
//! The index can be rebuilt from the on-media headers after a simulated
//! power cycle ([`KvFirmware::recover_index`] exercised via the `KvRecover`
//! test hook).

use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, Status, SubmissionEntry};
use bx_ssd::{CommandOutcome, DeviceDram, FirmwareCtx, FirmwareHandler};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Maximum key length (keys ride in CDW10–13).
pub const MAX_KEY_LEN: usize = 16;

/// Maximum value length (one log page minus the entry header).
pub const MAX_VALUE_LEN: usize = PAGE_SIZE - ENTRY_HEADER;

/// Per-entry on-media header: 16-byte padded key + 2-byte value length.
const ENTRY_HEADER: usize = MAX_KEY_LEN + 2;

/// The length field of a DELETE's tombstone entry (no value bytes follow).
/// No value can have it: [`MAX_VALUE_LEN`] is far below.
const TOMBSTONE: u16 = u16::MAX;

/// A key padded to the fixed wire width.
pub type PaddedKey = [u8; MAX_KEY_LEN];

/// Pads a key to the 16-byte wire format.
///
/// # Panics
///
/// Panics if the key exceeds [`MAX_KEY_LEN`] (host API validates first).
pub fn pad_key(key: &[u8]) -> PaddedKey {
    assert!(key.len() <= MAX_KEY_LEN, "key too long");
    let mut out = [0u8; MAX_KEY_LEN];
    out[..key.len()].copy_from_slice(key);
    out
}

/// Reads the padded key out of a KV command's CDW10–13.
pub fn key_from_sqe(sqe: &SubmissionEntry) -> PaddedKey {
    let mut out = [0u8; MAX_KEY_LEN];
    for i in 0..4 {
        out[i * 4..i * 4 + 4].copy_from_slice(&sqe.cdw(10 + i).to_le_bytes());
    }
    out
}

/// Writes a padded key into a command's CDW10–13 (host side).
pub fn key_into_cdws(key: &PaddedKey, cdw10_15: &mut [u32; 6]) {
    for i in 0..4 {
        cdw10_15[i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
}

/// Where a value lives: bytes `off..off + len` of log page `lpn`. The page
/// is still the DRAM staging page exactly when `lpn` is the firmware's
/// `next_lpn`, the page the staging buffer will be flushed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueLoc {
    lpn: u64,
    off: u16,
    len: u16,
}

/// Device-side operation counters, shared with the host store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvDeviceStats {
    /// PUT commands handled.
    pub puts: u64,
    /// GET commands handled.
    pub gets: u64,
    /// GETs that found the key.
    pub hits: u64,
    /// DELETE commands handled.
    pub deletes: u64,
    /// Staging pages flushed to NAND.
    pub flushes: u64,
    /// Value bytes accepted.
    pub value_bytes_in: u64,
}

/// Firmware timing constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvTiming {
    /// Index lookup/insert cost.
    pub index_op: Nanos,
    /// Appending an entry (a value or a tombstone) into the staging page.
    pub log_append: Nanos,
    /// Reading a staged value from device DRAM.
    pub dram_read: Nanos,
}

impl Default for KvTiming {
    fn default() -> Self {
        KvTiming {
            index_op: Nanos::from_ns(150),
            log_append: Nanos::from_ns(100),
            dram_read: Nanos::from_ns(200),
        }
    }
}

/// The key-value firmware personality.
#[derive(Debug)]
pub struct KvFirmware {
    nand_io: bool,
    /// Write-through durability: every PUT and DELETE re-programs the
    /// partial staging page to NAND before acking, so acked updates survive
    /// a power cut.
    durable_puts: bool,
    timing: KvTiming,
    /// Keyed by `u128::from_be_bytes(padded key)`: integer order is the
    /// keys' byte-lexicographic order.
    index: BTreeMap<u128, ValueLoc>,
    /// Staging page region in device DRAM.
    staging_off: usize,
    staging_used: usize,
    /// Next log LPN to flush into; entries tagged with it are still staged.
    next_lpn: u64,
    /// With NAND off, flushed pages are retained in a DRAM log region
    /// instead (pure-transfer benchmarking still gets correct GETs).
    dram_log_off: usize,
    dram_log_pages: usize,
    /// Scratch page reused across commands: NAND page reads, and the
    /// staging page's copy into the DRAM log.
    page_buf: Vec<u8>,
    stats: Rc<RefCell<KvDeviceStats>>,
}

impl KvFirmware {
    /// Creates the firmware, claiming its DRAM regions. `nand_io = false`
    /// keeps the value log entirely in device DRAM (the paper's NAND-off
    /// measurement mode).
    pub fn new(dram: &mut DeviceDram, nand_io: bool) -> Self {
        Self::with_stats(
            dram,
            nand_io,
            Rc::new(RefCell::new(KvDeviceStats::default())),
        )
    }

    /// Like [`KvFirmware::new`], sharing `stats` with the host-side handle.
    pub fn with_stats(
        dram: &mut DeviceDram,
        nand_io: bool,
        stats: Rc<RefCell<KvDeviceStats>>,
    ) -> Self {
        let staging = dram
            .alloc_region("kv-staging", PAGE_SIZE)
            .expect("device DRAM too small for KV staging");
        // DRAM-resident log for NAND-off mode: half the remaining DRAM.
        let log_pages = (dram.remaining() / 2) / PAGE_SIZE;
        let log = dram
            .alloc_region("kv-dram-log", log_pages * PAGE_SIZE)
            .expect("device DRAM too small for KV log");
        KvFirmware {
            nand_io,
            durable_puts: false,
            timing: KvTiming::default(),
            index: BTreeMap::new(),
            staging_off: staging.offset,
            staging_used: 0,
            next_lpn: 0,
            dram_log_off: log.offset,
            dram_log_pages: log_pages,
            page_buf: Vec::new(),
            stats,
        }
    }

    /// The shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<KvDeviceStats>> {
        Rc::clone(&self.stats)
    }

    /// Enables write-through durable PUTs: before a PUT or DELETE is
    /// acknowledged the partial staging page is re-programmed to the current
    /// log LPN, so the ack implies durability (the durable-linearizability
    /// contract). Costs a NAND program per update — the price the default volatile-staging mode
    /// avoids. Requires `nand_io`; meaningless (and ignored) without it,
    /// since the DRAM log is itself volatile.
    pub fn set_durable_puts(&mut self, on: bool) {
        self.durable_puts = on;
    }

    /// Device-DRAM offset of NAND-off log page `lpn`.
    fn dram_log_page(&self, lpn: u64) -> usize {
        self.dram_log_off + lpn as usize * PAGE_SIZE
    }

    /// Programs the staging page to log page `next_lpn` through the FTL.
    /// Returns the completion instant.
    fn program_staging(&self, ctx: &mut FirmwareCtx<'_>, now: Nanos) -> Result<Nanos, Status> {
        if self.next_lpn >= ctx.ftl.capacity_pages() {
            return Err(Status::CapacityExceeded);
        }
        let page = ctx
            .dram
            .read(self.staging_off, PAGE_SIZE)
            .map_err(|_| Status::InternalError)?;
        ctx.ftl
            .write(self.next_lpn, page, ctx.nand, now)
            .map_err(|_| Status::InternalError)
    }

    /// Flushes the staging page. Returns the completion instant.
    fn flush_staging(&mut self, ctx: &mut FirmwareCtx<'_>, now: Nanos) -> Result<Nanos, Status> {
        if self.staging_used == 0 {
            return Ok(now);
        }
        let done = if self.nand_io {
            self.program_staging(ctx, now)?
        } else {
            if (self.next_lpn as usize) >= self.dram_log_pages {
                return Err(Status::CapacityExceeded);
            }
            let page = ctx
                .dram
                .read(self.staging_off, PAGE_SIZE)
                .map_err(|_| Status::InternalError)?;
            self.page_buf.clear();
            self.page_buf.extend_from_slice(page);
            ctx.dram
                .write(self.dram_log_page(self.next_lpn), &self.page_buf)
                .map_err(|_| Status::InternalError)?;
            now + self.timing.log_append
        };
        // Every staged entry is tagged with this LPN, so advancing the
        // frontier moves them all out of staging at once.
        self.next_lpn += 1;
        self.staging_used = 0;
        // Zero the staging page so recovery never replays stale entry
        // headers left over from the previous fill.
        ctx.dram
            .write(self.staging_off, &[0u8; PAGE_SIZE])
            .map_err(|_| Status::InternalError)?;
        self.stats.borrow_mut().flushes += 1;
        Ok(done)
    }

    /// Appends `key`'s log entry (`value`, or a tombstone for `None`) to the
    /// staging page, flushing the page first if the entry does not fit, and
    /// applies it to the index. Advances `now` to each step's completion,
    /// so on error it holds the instant the failing step started.
    ///
    /// Write-through durability: with `durable_puts` the partial staging
    /// page then lands at the current log LPN before the ack. The FTL
    /// journals the remap and the ack waits for `max(program done, record
    /// durable)`, so a later power cut can at worst fall back to the
    /// previous write-through of the same LPN — exactly the last acked
    /// state.
    fn log_entry(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        key: u128,
        value: Option<&[u8]>,
        now: &mut Nanos,
    ) -> Result<(), Status> {
        let body = value.unwrap_or_default();
        let entry = ENTRY_HEADER + body.len();
        if self.staging_used + entry > PAGE_SIZE {
            *now = self.flush_staging(ctx, *now)?;
        }
        // On-media entry header enables index recovery after power cycles.
        let off = self.staging_used;
        let len = value.map_or(TOMBSTONE, |v| v.len() as u16);
        let mut header = [0u8; ENTRY_HEADER];
        header[..MAX_KEY_LEN].copy_from_slice(&key.to_be_bytes());
        header[MAX_KEY_LEN..].copy_from_slice(&len.to_le_bytes());
        ctx.dram
            .write(self.staging_off + off, &header)
            .and_then(|()| ctx.dram.write(self.staging_off + off + ENTRY_HEADER, body))
            .map_err(|_| Status::InternalError)?;
        self.staging_used += entry;
        if value.is_some() {
            let loc = ValueLoc {
                lpn: self.next_lpn,
                off: (off + ENTRY_HEADER) as u16,
                len,
            };
            self.index.insert(key, loc);
        } else {
            self.index.remove(&key);
        }
        if self.durable_puts && self.nand_io {
            *now = self.program_staging(ctx, *now)?;
        }
        Ok(())
    }

    fn put(&mut self, ctx: &mut FirmwareCtx<'_>, key: u128, value: &[u8]) -> CommandOutcome {
        let mut now = ctx.now + self.timing.index_op + self.timing.log_append;
        // An empty value under the all-zero key would write an all-zero
        // header: the end-of-page marker, which recovery stops at.
        if value.len() > MAX_VALUE_LEN || (key == 0 && value.is_empty()) {
            return CommandOutcome::fail(Status::KvInvalidSize, now);
        }
        match self.log_entry(ctx, key, Some(value), &mut now) {
            Ok(()) => {
                let mut stats = self.stats.borrow_mut();
                stats.puts += 1;
                stats.value_bytes_in += value.len() as u64;
                CommandOutcome::ok(now)
            }
            Err(s) => CommandOutcome::fail(s, now),
        }
    }

    fn get(&mut self, ctx: &mut FirmwareCtx<'_>, key: u128) -> CommandOutcome {
        let now = ctx.now + self.timing.index_op;
        self.stats.borrow_mut().gets += 1;
        let Some(&ValueLoc { lpn, off, len }) = self.index.get(&key) else {
            return CommandOutcome::fail(Status::KvKeyNotFound, now);
        };
        self.stats.borrow_mut().hits += 1;
        let (off, len) = (usize::from(off), usize::from(len));
        let (bytes, done) = if lpn != self.next_lpn && self.nand_io {
            match ctx.ftl.read_into(lpn, ctx.nand, now, &mut self.page_buf) {
                Ok(t) => (self.page_buf[off..off + len].to_vec(), t),
                Err(_) => return CommandOutcome::fail(Status::InternalError, now),
            }
        } else {
            let page = if lpn == self.next_lpn {
                self.staging_off
            } else {
                self.dram_log_page(lpn)
            };
            match ctx.dram.read(page + off, len) {
                Ok(d) => (d.to_vec(), now + self.timing.dram_read),
                Err(_) => return CommandOutcome::fail(Status::InternalError, now),
            }
        };
        CommandOutcome {
            status: Status::Success,
            result: bytes.len() as u32,
            response: Some(bytes),
            complete_at: done,
        }
    }

    fn delete(&mut self, ctx: &mut FirmwareCtx<'_>, key: u128) -> CommandOutcome {
        let now = ctx.now + self.timing.index_op;
        self.stats.borrow_mut().deletes += 1;
        if !self.index.contains_key(&key) {
            return CommandOutcome::fail(Status::KvKeyNotFound, now);
        }
        // The tombstone keeps the key deleted when recovery replays the log.
        let mut now = now + self.timing.log_append;
        match self.log_entry(ctx, key, None, &mut now) {
            Ok(()) => CommandOutcome::ok(now),
            Err(s) => CommandOutcome::fail(s, now),
        }
    }

    /// Iterator command: returns up to as many 16-byte keys as fit in the
    /// response buffer, starting from index `cursor` (CDW14); the response
    /// is `[count u32][next_cursor u32][key ×16B]·count`, `next_cursor` is
    /// `u32::MAX` when the scan is done.
    fn iterate(&mut self, ctx: &FirmwareCtx<'_>, cursor: u32, buf_len: usize) -> CommandOutcome {
        let now = ctx.now + self.timing.index_op;
        if buf_len < 8 + MAX_KEY_LEN {
            return CommandOutcome::fail(Status::InvalidField, now);
        }
        let max_keys = (buf_len - 8) / MAX_KEY_LEN;
        let total = self.index.len();
        let count = total.saturating_sub(cursor as usize).min(max_keys);
        let next = if (cursor as usize + count) < total {
            cursor + count as u32
        } else {
            u32::MAX
        };
        let mut resp = Vec::with_capacity(8 + count * MAX_KEY_LEN);
        resp.extend_from_slice(&(count as u32).to_le_bytes());
        resp.extend_from_slice(&next.to_le_bytes());
        for k in self.index.keys().skip(cursor as usize).take(count) {
            resp.extend_from_slice(&k.to_be_bytes());
        }
        CommandOutcome {
            status: Status::Success,
            result: count as u32,
            response: Some(resp),
            complete_at: now + self.timing.dram_read,
        }
    }

    /// Bulk PUT: `[count u32]` then `[key 16B][vlen u16][value]` per entry —
    /// the batching alternative of §2.2.1 ("may not always be applicable,
    /// particularly in use cases where fine-grained persistence is desired").
    fn batch_put(&mut self, ctx: &mut FirmwareCtx<'_>, batch: &[u8]) -> CommandOutcome {
        if batch.len() < 4 {
            return CommandOutcome::fail(Status::InvalidField, ctx.now);
        }
        let count = u32::from_le_bytes([batch[0], batch[1], batch[2], batch[3]]) as usize;
        let mut off = 4usize;
        let mut last = CommandOutcome::ok(ctx.now);
        for _ in 0..count {
            if off + MAX_KEY_LEN + 2 > batch.len() {
                return CommandOutcome::fail(Status::InvalidField, ctx.now);
            }
            let mut key = [0u8; MAX_KEY_LEN];
            key.copy_from_slice(&batch[off..off + MAX_KEY_LEN]);
            let key = u128::from_be_bytes(key);
            let vlen = u16::from_le_bytes([batch[off + MAX_KEY_LEN], batch[off + MAX_KEY_LEN + 1]])
                as usize;
            off += MAX_KEY_LEN + 2;
            if off + vlen > batch.len() {
                return CommandOutcome::fail(Status::InvalidField, ctx.now);
            }
            let value = &batch[off..off + vlen];
            off += vlen;
            ctx.now = last.complete_at;
            last = self.put(ctx, key, value);
            if !last.status.is_success() {
                return last;
            }
        }
        CommandOutcome {
            result: count as u32,
            ..last
        }
    }

    /// Rebuilds the index by scanning entry headers in the persisted log —
    /// a simulated post-power-cycle recovery. Returns the number of entries
    /// (values and tombstones) replayed.
    ///
    /// `include_staging` distinguishes a graceful restart (device DRAM
    /// intact: the staging page is replayed too) from a crash/power loss
    /// (`false`: only NAND-persisted pages survive; entries still in the
    /// DRAM staging page are honestly lost, matching the durability
    /// semantics of any volatile write buffer without a capacitor). With
    /// `durable_puts` the staging page's write-through copy is persisted,
    /// so after a crash it closes as the last log page and its entries
    /// survive.
    ///
    /// Recovery replays entries in log order, so later PUTs and DELETEs
    /// win, like any log-structured store.
    pub fn recover_index(&mut self, ctx: &mut FirmwareCtx<'_>, include_staging: bool) -> usize {
        self.index.clear();
        if !include_staging {
            // Power loss: the volatile staging page is gone. The log is
            // written strictly sequentially, so the mapped prefix of the FTL
            // IS the persisted log, write-through page included.
            self.staging_used = 0;
            let _ = ctx.dram.write(self.staging_off, &[0u8; PAGE_SIZE]);
            if self.nand_io {
                while self.next_lpn < ctx.ftl.capacity_pages() && ctx.ftl.is_mapped(self.next_lpn) {
                    self.next_lpn += 1;
                }
            }
        }
        let mut recovered = 0;
        let mut now = ctx.now;
        for lpn in 0..self.next_lpn {
            let page = if self.nand_io {
                match ctx.ftl.read_into(lpn, ctx.nand, now, &mut self.page_buf) {
                    Ok(t) => {
                        now = t;
                        &self.page_buf[..]
                    }
                    Err(_) => continue,
                }
            } else {
                match ctx.dram.read(self.dram_log_page(lpn), PAGE_SIZE) {
                    Ok(p) => p,
                    Err(_) => continue,
                }
            };
            recovered += Self::replay_page(&mut self.index, page, lpn);
        }
        // Staging page last: newest entries win.
        if include_staging && self.staging_used > 0 {
            if let Ok(page) = ctx.dram.read(self.staging_off, PAGE_SIZE) {
                recovered += Self::replay_page(&mut self.index, page, self.next_lpn);
            }
        }
        recovered
    }

    /// Replays log page `lpn`'s entries into `index`. Returns how many.
    fn replay_page(index: &mut BTreeMap<u128, ValueLoc>, page: &[u8], lpn: u64) -> usize {
        let mut off = 0;
        let mut n = 0;
        while off + ENTRY_HEADER <= page.len() {
            let mut key = [0u8; MAX_KEY_LEN];
            key.copy_from_slice(&page[off..off + MAX_KEY_LEN]);
            let key = u128::from_be_bytes(key);
            let len = u16::from_le_bytes([page[off + MAX_KEY_LEN], page[off + MAX_KEY_LEN + 1]]);
            if key == 0 && len == 0 {
                break; // end of log page
            }
            if len == TOMBSTONE {
                index.remove(&key);
                off += ENTRY_HEADER;
                n += 1;
                continue;
            }
            if off + ENTRY_HEADER + usize::from(len) > page.len() {
                break; // torn entry
            }
            let loc = ValueLoc {
                lpn,
                off: (off + ENTRY_HEADER) as u16,
                len,
            };
            index.insert(key, loc);
            off += ENTRY_HEADER + usize::from(len);
            n += 1;
        }
        n
    }

    /// Number of live keys.
    pub fn key_count(&self) -> usize {
        self.index.len()
    }
}

impl FirmwareHandler for KvFirmware {
    fn handle(
        &mut self,
        mut ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome {
        let key = u128::from_be_bytes(key_from_sqe(sqe));
        match sqe.io_opcode() {
            Some(IoOpcode::KvPut) => {
                let Some(value) = payload else {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                };
                self.put(&mut ctx, key, value)
            }
            Some(IoOpcode::KvGet) => self.get(&mut ctx, key),
            Some(IoOpcode::KvDelete) => self.delete(&mut ctx, key),
            Some(IoOpcode::KvIter) => {
                let cursor = sqe.cdw(14);
                let buf_len = sqe.data_len() as usize;
                self.iterate(&ctx, cursor, buf_len)
            }
            Some(IoOpcode::KvBatchPut) => {
                let Some(batch) = payload else {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                };
                self.batch_put(&mut ctx, batch)
            }
            Some(IoOpcode::KvRecover) => {
                let include_staging = sqe.cdw(14) & 1 == 1;
                let recovered = self.recover_index(&mut ctx, include_staging);
                CommandOutcome {
                    status: Status::Success,
                    result: recovered as u32,
                    response: None,
                    complete_at: ctx.now,
                }
            }
            _ => CommandOutcome::fail(Status::InvalidOpcode, ctx.now),
        }
    }

    fn on_power_cycle(&mut self, mut ctx: FirmwareCtx<'_>) {
        // Volatile cursors are gone with DRAM: recovery re-derives the log
        // LPN frontier from the recovered FTL map, and never replays the
        // (wiped) staging page.
        self.next_lpn = 0;
        self.recover_index(&mut ctx, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_ssd::{Ftl, NandArray, NandConfig};

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        fw: KvFirmware,
    }

    fn rig(nand_io: bool) -> Rig {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(4 << 20);
        let fw = KvFirmware::new(&mut dram, nand_io);
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    fn put(r: &mut Rig, key: &[u8], value: &[u8]) -> CommandOutcome {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvPut, 1, 1);
        let mut cdws = [0u32; 6];
        key_into_cdws(&pad_key(key), &mut cdws);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        sqe.set_data_len(value.len() as u32);
        r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            &sqe,
            Some(value),
        )
    }

    fn get(r: &mut Rig, key: &[u8]) -> CommandOutcome {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvGet, 1, 1);
        let mut cdws = [0u32; 6];
        key_into_cdws(&pad_key(key), &mut cdws);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            &sqe,
            None,
        )
    }

    #[test]
    fn put_get_round_trip() {
        let mut r = rig(true);
        assert!(put(&mut r, b"alpha", b"value-1").status.is_success());
        let out = get(&mut r, b"alpha");
        assert!(out.status.is_success());
        assert_eq!(out.response.unwrap(), b"value-1");
        assert_eq!(out.result, 7);
    }

    #[test]
    fn get_missing_key() {
        let mut r = rig(true);
        assert_eq!(get(&mut r, b"nope").status, Status::KvKeyNotFound);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut r = rig(true);
        put(&mut r, b"k", b"old");
        put(&mut r, b"k", b"newer-value");
        assert_eq!(get(&mut r, b"k").response.unwrap(), b"newer-value");
    }

    #[test]
    fn staging_flushes_to_nand_and_reads_back() {
        let mut r = rig(true);
        // Fill well past one staging page.
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            let value = vec![(i % 256) as u8; 100];
            assert!(
                put(&mut r, key.as_bytes(), &value).status.is_success(),
                "{i}"
            );
        }
        assert!(r.fw.stats_handle().borrow().flushes > 0);
        assert!(r.nand.stats().programs > 0);
        for i in (0..200u32).step_by(17) {
            let key = format!("key-{i:04}");
            let out = get(&mut r, key.as_bytes());
            assert!(out.status.is_success(), "{key}");
            assert_eq!(out.response.unwrap(), vec![(i % 256) as u8; 100]);
        }
    }

    #[test]
    fn nand_off_mode_still_correct() {
        let mut r = rig(false);
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            put(&mut r, key.as_bytes(), format!("val-{i}").as_bytes());
        }
        assert_eq!(r.nand.stats().programs, 0, "NAND untouched");
        let out = get(&mut r, b"key-0123");
        assert_eq!(out.response.unwrap(), b"val-123");
    }

    #[test]
    fn delete_removes_key() {
        let mut r = rig(true);
        put(&mut r, b"gone", b"v");
        let mut sqe = SubmissionEntry::io(IoOpcode::KvDelete, 1, 1);
        let mut cdws = [0u32; 6];
        key_into_cdws(&pad_key(b"gone"), &mut cdws);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        let out = r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            &sqe,
            None,
        );
        assert!(out.status.is_success());
        assert_eq!(get(&mut r, b"gone").status, Status::KvKeyNotFound);
    }

    #[test]
    fn oversized_value_rejected() {
        let mut r = rig(true);
        let out = put(&mut r, b"big", &vec![0; MAX_VALUE_LEN + 1]);
        assert_eq!(out.status, Status::KvInvalidSize);
    }

    #[test]
    fn index_recovery_after_power_cycle() {
        let mut r = rig(true);
        for i in 0..120u32 {
            let key = format!("key-{i:04}");
            put(&mut r, key.as_bytes(), format!("value-{i}").as_bytes());
        }
        let before = r.fw.key_count();
        // Simulated power cycle: wipe the index, rebuild from media.
        let recovered = r.fw.recover_index(
            &mut FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            true,
        );
        assert!(recovered >= before, "recovered {recovered} of {before}");
        assert_eq!(r.fw.key_count(), before);
        assert_eq!(get(&mut r, b"key-0077").response.unwrap(), b"value-77");
    }

    #[test]
    fn key_codec_round_trip() {
        let key = pad_key(b"hello-world!");
        let mut cdws = [0u32; 6];
        key_into_cdws(&key, &mut cdws);
        let mut sqe = SubmissionEntry::io(IoOpcode::KvGet, 1, 1);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        assert_eq!(key_from_sqe(&sqe), key);
    }
}
