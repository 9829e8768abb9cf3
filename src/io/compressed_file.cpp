#include "io/compressed_file.h"

#include <cstring>

#include "common/error.h"
#include "io/safe_file.h"
#include "wavelet/interp_wavelet.h"

namespace mpcf::io {

ContainerHeader dump_header(const compression::CompressedQuantity& cq) {
  ContainerHeader h;
  h.kind = PayloadKind::kWavelet;
  h.bx = cq.bx;
  h.by = cq.by;
  h.bz = cq.bz;
  h.bs = cq.block_size;
  const std::int32_t fields[2] = {cq.levels, cq.quantity};
  std::memcpy(h.record.data(), fields, 8);
  std::memcpy(h.record.data() + 8, &cq.eps, 4);
  h.record[12] = cq.derived_pressure ? 1 : 0;
  return h;
}

namespace {

/// A stream's directory entry.
BlobEntry stream_entry(const compression::CompressedQuantity::Stream& s) {
  BlobEntry e;
  e.size = s.data.size();
  e.raw_size = s.raw_bytes;
  e.crc = crc32_bytes(s.data.data(), s.data.size());
  e.ids = s.block_ids;
  return e;
}

}  // namespace

Blob stream_blob(compression::CompressedQuantity::Stream&& stream) {
  Blob b;
  b.entry = stream_entry(stream);
  b.pieces.push_back(std::move(stream.data));
  return b;
}

std::uint64_t write_compressed(const std::string& path,
                               const compression::CompressedQuantity& cq) {
  std::uint64_t ids = 0;
  for (const auto& s : cq.streams) ids += s.block_ids.size();
  ContainerWriter w(path, dump_header(cq), cq.streams.size(), ids);
  for (const auto& s : cq.streams) {
    w.add(stream_entry(s));
    w.write(s.data.data(), s.data.size());
  }
  return w.commit();
}

compression::CompressedQuantity read_compressed(const std::string& path) {
  const ContainerReader file(path, PayloadKind::kWavelet, "read_compressed");
  const ContainerHeader& h = file.header();
  compression::CompressedQuantity cq;
  cq.bx = h.bx;
  cq.by = h.by;
  cq.bz = h.bz;
  cq.block_size = h.bs;
  std::int32_t fields[2];
  std::memcpy(fields, h.record.data(), 8);
  cq.levels = fields[0];
  cq.quantity = fields[1];
  std::memcpy(&cq.eps, h.record.data() + 8, 4);
  cq.derived_pressure = h.record[12] != 0;
  // The record drives the decoder: the wavelet depth must be the one the
  // block size gives, and a raw quantity must name a cell component.
  require(cq.levels == wavelet::max_levels(cq.block_size),
          "read_compressed: " + std::to_string(cq.levels) + " wavelet levels for blocks of " +
              std::to_string(cq.block_size) + "^3");
  require(cq.derived_pressure || (cq.quantity >= 0 && cq.quantity < kNumQuantities),
          "read_compressed: quantity " + std::to_string(cq.quantity) + " out of range");

  cq.streams.resize(file.blobs().size());
  for (std::size_t k = 0; k < cq.streams.size(); ++k) {
    auto& s = cq.streams[k];
    s.block_ids = file.blobs()[k].ids;
    s.raw_bytes = file.blobs()[k].raw_size;
    s.data = file.read_blob(k);
  }
  return cq;
}

}  // namespace mpcf::io
