//! Abstract interfaces between the ISA, the tensor-core model and the
//! memory/register substrates.

use crate::instr::Reg;

/// A byte-addressable memory.
///
/// Implemented by the device global memory and per-CTA shared memory in
/// `tcsim-mem`; the tensor-core functional model reads/writes operand
/// matrices through this interface.
pub trait ByteMemory {
    /// Reads one byte. Unwritten locations read as zero.
    fn read_u8(&self, addr: u64) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);

    /// Reads a little-endian 16-bit value.
    fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr + 1)])
    }

    /// Writes a little-endian 16-bit value.
    fn write_u16(&mut self, addr: u64, value: u16) {
        let b = value.to_le_bytes();
        self.write_u8(addr, b[0]);
        self.write_u8(addr + 1, b[1]);
    }

    /// Reads a little-endian 32-bit value.
    fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        for (i, out) in b.iter_mut().enumerate() {
            *out = self.read_u8(addr + i as u64);
        }
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian 32-bit value.
    fn write_u32(&mut self, addr: u64, value: u32) {
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr + i as u64, byte);
        }
    }

    /// Reads a little-endian 64-bit value.
    fn read_u64(&self, addr: u64) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr + 4) as u64) << 32)
    }

    /// Writes a little-endian 64-bit value.
    fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr + 4, (value >> 32) as u32);
    }

    /// Reads `out.len()` consecutive bytes starting at `addr`: the bulk
    /// form of [`ByteMemory::read_u8`], with the same result for every
    /// byte. Memories with contiguous backing override it with a copy.
    fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.read_u8(addr + i as u64);
        }
    }

    /// Writes `data` to consecutive bytes starting at `addr`: the bulk
    /// form of [`ByteMemory::write_u8`], with the same effect (growth and
    /// page materialisation included) as writing each byte in turn.
    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        for (i, &byte) in data.iter().enumerate() {
            self.write_u8(addr + i as u64, byte);
        }
    }
}

/// A simple growable `Vec<u8>`-backed memory, used for parameter buffers
/// and in tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecMemory {
    bytes: Vec<u8>,
}

impl VecMemory {
    /// Creates an empty memory.
    pub fn new() -> VecMemory {
        VecMemory::default()
    }

    /// Creates a memory with `len` zero bytes pre-allocated.
    pub fn with_len(len: usize) -> VecMemory {
        VecMemory {
            bytes: vec![0; len],
        }
    }

    /// Current backing length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether no byte has been allocated.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Borrows the backing bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }
}

impl ByteMemory for VecMemory {
    fn read_u8(&self, addr: u64) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0)
    }

    fn write_u8(&mut self, addr: u64, value: u8) {
        let idx = addr as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] = value;
    }
}

/// Per-warp view of the register file: 32 lanes × N 32-bit registers.
///
/// The tensor-core functional model reads operand fragments and writes
/// result fragments through this interface (fragments are spans of
/// consecutive registers in each lane, §III-C).
pub trait WarpRegisters {
    /// Reads lane `lane`'s register `reg`.
    fn read(&self, lane: usize, reg: Reg) -> u32;

    /// Writes lane `lane`'s register `reg`.
    fn write(&mut self, lane: usize, reg: Reg, value: u32);

    /// Reads the 64-bit pair `(reg, reg+1)`.
    fn read_pair(&self, lane: usize, reg: Reg) -> u64 {
        (self.read(lane, reg) as u64) | ((self.read(lane, Reg(reg.0 + 1)) as u64) << 32)
    }

    /// Writes the 64-bit pair `(reg, reg+1)`.
    fn write_pair(&mut self, lane: usize, reg: Reg, value: u64) {
        self.write(lane, reg, value as u32);
        self.write(lane, Reg(reg.0 + 1), (value >> 32) as u32);
    }
}

/// One 32-bit value per lane of a warp: the unit the executor works in.
pub type Row = [u32; crate::WARP_SIZE];

/// Dense register storage for one warp, **register-major**: the 32 lanes
/// of one register are contiguous (`rows[reg][lane]`), so the executor
/// reads an operand as one [`Row`] and loops over it 32-wide, while the
/// tensor-core fragment code keeps addressing single `(lane, reg)` cells
/// through [`WarpRegisters`].
#[derive(Clone, Debug)]
pub struct WarpRegFile {
    rows: Vec<Row>,
}

#[cold]
#[inline(never)]
fn out_of_range(reg: Reg, per_lane: usize) -> ! {
    panic!("register {reg} out of range (kernel declares {per_lane} regs)")
}

impl WarpRegFile {
    /// Creates a register file with `per_lane` registers for each of the 32
    /// lanes, all zero.
    pub fn new(per_lane: usize) -> WarpRegFile {
        WarpRegFile {
            rows: vec![[0; crate::WARP_SIZE]; per_lane],
        }
    }

    /// Registers per lane.
    pub fn per_lane(&self) -> usize {
        self.rows.len()
    }

    /// All 32 lanes of register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not below [`WarpRegFile::per_lane`].
    #[inline]
    pub fn row(&self, reg: Reg) -> &Row {
        match self.rows.get(reg.0 as usize) {
            Some(row) => row,
            None => out_of_range(reg, self.rows.len()),
        }
    }

    /// Mutable view of all 32 lanes of register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not below [`WarpRegFile::per_lane`].
    #[inline]
    pub fn row_mut(&mut self, reg: Reg) -> &mut Row {
        let per_lane = self.rows.len();
        match self.rows.get_mut(reg.0 as usize) {
            Some(row) => row,
            None => out_of_range(reg, per_lane),
        }
    }
}

impl WarpRegisters for WarpRegFile {
    fn read(&self, lane: usize, reg: Reg) -> u32 {
        self.row(reg)[lane]
    }

    fn write(&mut self, lane: usize, reg: Reg, value: u32) {
        self.row_mut(reg)[lane] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_reads_zero_when_unwritten() {
        let m = VecMemory::new();
        assert_eq!(m.read_u8(100), 0);
        assert_eq!(m.read_u32(4096), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn vec_memory_roundtrips_all_widths() {
        let mut m = VecMemory::new();
        m.write_u8(0, 0xAB);
        m.write_u16(2, 0xBEEF);
        m.write_u32(4, 0xDEAD_BEEF);
        m.write_u64(8, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u8(0), 0xAB);
        assert_eq!(m.read_u16(2), 0xBEEF);
        assert_eq!(m.read_u32(4), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(8), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn bulk_accessors_agree_with_the_byte_accessors() {
        let mut m = VecMemory::new();
        m.write_bytes(3, &[1, 2, 3, 4, 5]);
        assert_eq!(m.len(), 8, "grows exactly as five write_u8 calls would");
        assert_eq!(m.read_u32(3), 0x0403_0201);
        // A read running past the end sees zeros there.
        let mut out = [0xFFu8; 4];
        m.read_bytes(6, &mut out);
        assert_eq!(out, [4, 5, 0, 0]);
        assert_eq!(m.len(), 8, "reads never grow the memory");
    }

    #[test]
    fn vec_memory_is_little_endian() {
        let mut m = VecMemory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.as_slice()[..4], [1, 2, 3, 4]);
    }

    #[test]
    fn warp_regfile_isolates_lanes() {
        let mut rf = WarpRegFile::new(16);
        rf.write(0, Reg(3), 111);
        rf.write(1, Reg(3), 222);
        assert_eq!(rf.read(0, Reg(3)), 111);
        assert_eq!(rf.read(1, Reg(3)), 222);
        assert_eq!(rf.read(2, Reg(3)), 0);
        assert_eq!(rf.per_lane(), 16);
    }

    #[test]
    fn rows_agree_with_lane_accessors() {
        let mut rf = WarpRegFile::new(4);
        for reg in 0..4u16 {
            for lane in 0..crate::WARP_SIZE {
                rf.write(lane, Reg(reg), (reg as u32) << 8 | lane as u32);
            }
        }
        for reg in 0..4u16 {
            let row = *rf.row(Reg(reg));
            for (lane, &v) in row.iter().enumerate() {
                assert_eq!(v, rf.read(lane, Reg(reg)));
                assert_eq!(v, (reg as u32) << 8 | lane as u32);
            }
        }
        rf.row_mut(Reg(2))[9] = 0xDEAD;
        assert_eq!(rf.read(9, Reg(2)), 0xDEAD);
        assert_eq!(rf.read(9, Reg(1)), 1 << 8 | 9, "neighbouring row untouched");
        assert_eq!(
            rf.read(8, Reg(2)),
            2 << 8 | 8,
            "neighbouring lane untouched"
        );
    }

    #[test]
    #[should_panic(expected = "register r7 out of range (kernel declares 4 regs)")]
    fn out_of_range_read_names_the_register() {
        WarpRegFile::new(4).read(0, Reg(7));
    }

    #[test]
    #[should_panic(expected = "register r4 out of range (kernel declares 4 regs)")]
    fn out_of_range_row_mut_names_the_register() {
        WarpRegFile::new(4).row_mut(Reg(4));
    }

    #[test]
    fn warp_regfile_pairs() {
        let mut rf = WarpRegFile::new(8);
        rf.write_pair(5, Reg(2), 0xAAAA_BBBB_CCCC_DDDD);
        assert_eq!(rf.read(5, Reg(2)), 0xCCCC_DDDD);
        assert_eq!(rf.read(5, Reg(3)), 0xAAAA_BBBB);
        assert_eq!(rf.read_pair(5, Reg(2)), 0xAAAA_BBBB_CCCC_DDDD);
    }
}
