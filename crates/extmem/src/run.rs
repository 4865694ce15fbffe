//! Sequential record streams ("runs") over counted files.

use std::io::{BufReader, BufWriter, Read, Write};

use bytes::BytesMut;

use crate::codec::Record;
use crate::device::CountedFile;

/// A finished sequential file of `len` records.
pub struct Run<R: Record> {
    file: CountedFile,
    len: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> Run<R> {
    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Open a sequential reader positioned at the first record.
    pub fn reader(self, buffer_records: usize) -> std::io::Result<RunReader<R>> {
        RunReader::new(self.file, self.len, buffer_records)
    }

    /// Open a reader over a second handle, leaving `self` reusable.
    pub fn reader_shared(&self, buffer_records: usize) -> std::io::Result<RunReader<R>> {
        RunReader::new(self.file.reopen()?, self.len, buffer_records)
    }

    /// Read every record into memory (tests and small runs only).
    pub fn read_all(&self) -> std::io::Result<Vec<R>> {
        let mut reader = self.reader_shared(8192)?;
        let mut out = Vec::with_capacity(self.len as usize);
        while let Some(r) = reader.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Buffered writer producing a [`Run`].
pub struct RunWriter<R: Record> {
    out: BufWriter<CountedFile>,
    len: u64,
    buf: BytesMut,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> RunWriter<R> {
    /// Write records into `file`, buffering about `buffer_records`
    /// records between flushes to the counted device.
    pub fn new(file: CountedFile, buffer_records: usize) -> RunWriter<R> {
        let cap = buffer_records.max(1) * R::SIZE;
        RunWriter {
            out: BufWriter::with_capacity(cap, file),
            len: 0,
            buf: BytesMut::with_capacity(R::SIZE),
            _marker: std::marker::PhantomData,
        }
    }

    /// Append one record.
    pub fn push(&mut self, record: R) -> std::io::Result<()> {
        self.buf.clear();
        record.encode(&mut self.buf);
        self.out.write_all(&self.buf)?;
        self.len += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flush and finish, returning the completed [`Run`].
    pub fn finish(self) -> std::io::Result<Run<R>> {
        let mut file = self.out.into_inner().map_err(|e| std::io::Error::other(e.to_string()))?;
        file.flush()?;
        file.seek_to(0)?;
        Ok(Run { file, len: self.len, _marker: std::marker::PhantomData })
    }
}

/// A sequential stream of records: a [`RunReader`] over a file, or a
/// sorter's [`crate::sorter::SortedStream`] that never became one.
pub trait RecordSource<R: Record> {
    /// The next record, or `None` at end of stream.
    fn next_record(&mut self) -> std::io::Result<Option<R>>;
}

impl<R: Record> RecordSource<R> for RunReader<R> {
    fn next_record(&mut self) -> std::io::Result<Option<R>> {
        RunReader::next_record(self)
    }
}

/// Buffered sequential reader over a [`Run`].
pub struct RunReader<R: Record> {
    input: BufReader<CountedFile>,
    remaining: u64,
    scratch: Vec<u8>,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> RunReader<R> {
    fn new(
        mut file: CountedFile,
        len: u64,
        buffer_records: usize,
    ) -> std::io::Result<RunReader<R>> {
        file.seek_to(0)?;
        let cap = buffer_records.max(1) * R::SIZE;
        Ok(RunReader {
            input: BufReader::with_capacity(cap, file),
            remaining: len,
            scratch: vec![0u8; R::SIZE],
            _marker: std::marker::PhantomData,
        })
    }

    /// Records not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read the next record, or `None` at end of run.
    pub fn next_record(&mut self) -> std::io::Result<Option<R>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.input.read_exact(&mut self.scratch)?;
        self.remaining -= 1;
        let mut slice = &self.scratch[..];
        Ok(Some(R::decode(&mut slice)))
    }

    /// Fill `out` with up to `max` records; returns how many were read.
    pub fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> std::io::Result<usize> {
        let take = (self.remaining.min(max as u64)) as usize;
        out.reserve(take);
        for _ in 0..take {
            self.input.read_exact(&mut self.scratch)?;
            let mut slice = &self.scratch[..];
            out.push(R::decode(&mut slice));
        }
        self.remaining -= take as u64;
        Ok(take)
    }
}

/// Write all `records` into a fresh run in one call.
pub fn run_from_slice<R: Record>(
    store: &crate::device::TempStore,
    tag: &str,
    records: &[R],
    buffer_records: usize,
) -> std::io::Result<Run<R>> {
    let mut w = RunWriter::new(store.create(tag)?, buffer_records);
    for &r in records {
        w.push(r)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LabelRecord;
    use crate::device::TempStore;

    #[test]
    fn write_read_roundtrip() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> =
            (0..1000).map(|i| LabelRecord::new(i, i * 2, i + 7)).collect();
        let run = run_from_slice(&store, "rt", &records, 64).unwrap();
        assert_eq!(run.len(), 1000);
        assert_eq!(run.read_all().unwrap(), records);
    }

    #[test]
    fn batched_reads() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> = (0..10).map(|i| LabelRecord::new(i, 0, 0)).collect();
        let run = run_from_slice(&store, "b", &records, 4).unwrap();
        let mut reader = run.reader(4).unwrap();
        let mut batch = Vec::new();
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 6);
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 4);
        assert_eq!(reader.next_batch(&mut batch, 6).unwrap(), 0);
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn empty_run() {
        let store = TempStore::new().unwrap();
        let run = run_from_slice::<LabelRecord>(&store, "e", &[], 4).unwrap();
        assert!(run.is_empty());
        let mut r = run.reader(4).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn shared_reader_leaves_run_usable() {
        let store = TempStore::new().unwrap();
        let records: Vec<LabelRecord> = (0..5).map(|i| LabelRecord::new(i, 1, 2)).collect();
        let run = run_from_slice(&store, "s", &records, 4).unwrap();
        assert_eq!(run.read_all().unwrap().len(), 5);
        assert_eq!(run.read_all().unwrap().len(), 5); // twice
    }
}
