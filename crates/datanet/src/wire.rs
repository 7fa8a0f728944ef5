//! The two primitives of the binary shard payload ([`crate::store`],
//! `FORMAT_VERSION` 4): LEB128 varints out, and a bounds-checked reader in.
//! Every failure is an `Err(String)` the store files as corruption — the
//! reader never indexes past its input and never reserves on the word of a
//! count it has not checked against the bytes that remain.

/// Append `v` as an unsigned LEB128 varint: seven bits per byte, low group
/// first, the high bit set on every byte but the last.
pub(crate) fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Forward-only cursor over an untrusted byte slice.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Where each varint began and whether it was read as a count, so the
    /// decoder tests can aim damage at every field.
    #[cfg(test)]
    pub(crate) vars: Vec<(usize, bool)>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            at: 0,
            #[cfg(test)]
            vars: Vec::new(),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next varint, narrowed to the field's type. Ten bytes hold 64
    /// bits; an eleventh byte, or bits past the 64th, is an error.
    pub(crate) fn var<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        #[cfg(test)]
        self.vars.push((self.at, false));
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let &b = (self.bytes.get(self.at))
                .ok_or_else(|| format!("truncated varint at byte {}", self.at))?;
            self.at += 1;
            let group = u64::from(b & 0x7F);
            if group << shift >> shift != group {
                break;
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                return T::try_from(v)
                    .map_err(|_| format!("varint {v} before byte {} is out of range", self.at));
            }
        }
        Err(format!("varint before byte {} overflows 64 bits", self.at))
    }

    /// A count of entries that each occupy at least `each` encoded bytes:
    /// one the remaining input cannot hold is rejected here, before the
    /// caller reserves anything for it.
    pub(crate) fn count(&mut self, each: usize) -> Result<usize, String> {
        let n: usize = self.var()?;
        #[cfg(test)]
        {
            self.vars.last_mut().expect("just pushed").1 = true;
        }
        match n.checked_mul(each) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(format!(
                "count {n} before byte {} exceeds the {} bytes that remain",
                self.at,
                self.remaining()
            )),
        }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "{n} bytes wanted at byte {}, {} remain",
                self.at,
                self.remaining()
            ));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// The payload must end where its last field does.
    pub(crate) fn done(&self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the last entry")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0u64, 1, 0x7F, 0x80, u64::from(u32::MAX), u64::MAX];
        values.extend((0..64).flat_map(|s| [(1u64 << s) - 1, 1 << s]));
        let mut buf = Vec::new();
        for &v in &values {
            put_var(&mut buf, v);
        }
        assert_eq!(buf[..2], [0, 1]);
        let mut r = Reader::new(&buf);
        for &v in &values {
            assert_eq!(r.var::<u64>(), Ok(v));
        }
        r.done().unwrap();
        assert!(r.var::<u64>().is_err(), "nothing left to read");
    }

    #[test]
    fn bad_varints_counts_and_lengths_are_errors() {
        // Ten continuation bytes, an eleventh byte, a 65th bit.
        assert!(Reader::new(&[0xFF; 10]).var::<u64>().is_err());
        assert!(Reader::new(&[0x80; 11]).var::<u64>().is_err());
        let mut max = Vec::new();
        put_var(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        let mut wider = max.clone();
        wider[9] = 0x02;
        assert!(Reader::new(&wider).var::<u64>().is_err());
        // Narrowing.
        let mut wide = Vec::new();
        put_var(&mut wide, u64::from(u32::MAX) + 1);
        assert!(Reader::new(&wide).var::<u32>().is_err());
        assert!(Reader::new(&wide).var::<u64>().is_ok());
        // A count is bounded by what is left after it.
        let buf = [3, 0, 0, 0, 0, 0, 0];
        assert_eq!(Reader::new(&buf).count(2), Ok(3));
        assert!(Reader::new(&buf).count(3).is_err());
        max.extend([0; 16]);
        assert!(Reader::new(&max).count(1).is_err());
        assert!(Reader::new(&buf).count(usize::MAX).is_err());
        // `take` and `done`.
        let mut r = Reader::new(&buf);
        assert_eq!(r.take(7).map(<[u8]>::len), Ok(7));
        assert!(r.take(1).is_err() && r.done().is_ok());
        assert!(Reader::new(&buf).done().is_err());
    }
}
