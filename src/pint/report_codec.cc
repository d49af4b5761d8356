#include "pint/report_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

namespace pint {

// Wire layout (all integers LEB128 varints unless noted):
//
//   magic "PRS1" (4 bytes)
//   name_count, then per name: length + raw bytes
//   record_count, then per record:
//     name_index
//     tag byte: 0 = AggregateObservation   (payload: fixed8 value bits)
//               1 = HopSampleObservation   (payload: hop, fixed8 value bits)
//               2 = PathDigestObservation  (payload: resolved, length, flag)
//               3 = path-decoded event     (payload: count, count * SwitchId)
//     packet_id
//     flow (fixed 8 bytes LE: flow keys are hashes, varints would expand)
//     path_length (k)
//     payload per tag
//
// Doubles are encoded as their IEEE-754 bit pattern (fixed 8 bytes LE), so
// encode/decode round-trips are byte-exact.

namespace {

constexpr std::uint8_t kMagic[4] = {'P', 'R', 'S', '1'};

constexpr std::uint8_t kTagAggregate = 0;
constexpr std::uint8_t kTagHopSample = 1;
constexpr std::uint8_t kTagPathDigest = 2;
constexpr std::uint8_t kTagPathEvent = 3;

// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, put_varint(buf, v));
}

std::uint8_t* put_fixed64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p;
}

// Bounded reader over the input buffer; every get_* returns false on
// truncation so decode() can reject malformed input without throwing.
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  bool get_varint(std::uint64_t& v) {
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;  // varint longer than 64 bits
  }

  bool get_fixed64(std::uint64_t& v) {
    if (end - p < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    return true;
  }

  bool get_byte(std::uint8_t& b) {
    if (p == end) return false;
    b = *p++;
    return true;
  }

  bool get_bytes(std::string_view& s, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    s = std::string_view(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }
};

}  // namespace

// --- ReportEncoder ----------------------------------------------------------

std::uint32_t ReportEncoder::intern(std::string_view name) {
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_index_.emplace(names_.back(), index);
  return index;
}

std::uint8_t* ReportEncoder::begin_record(std::string_view query,
                                          std::uint8_t tag,
                                          const SinkContext& ctx,
                                          std::size_t max_payload_bytes) {
  records_.push_back(RecordRef{body_.size(), intern(query)});
  // Room for the worst case; end_record() trims to what was written.
  const std::size_t at = body_.size();
  body_.resize(at + 1 + kMaxVarintBytes + 8 + kMaxVarintBytes +
               max_payload_bytes);
  std::uint8_t* p = body_.data() + at;
  *p++ = tag;
  p = put_varint(p, ctx.packet_id);
  p = put_fixed64(p, ctx.flow);
  return put_varint(p, ctx.path_length);
}

void ReportEncoder::end_record(const std::uint8_t* end) {
  body_.resize(static_cast<std::size_t>(end - body_.data()));
}

void ReportEncoder::add(const SinkContext& ctx, std::string_view query,
                        const Observation& obs) {
  std::uint8_t* p = nullptr;
  if (const auto* agg = std::get_if<AggregateObservation>(&obs)) {
    p = begin_record(query, kTagAggregate, ctx, 8);
    p = put_fixed64(p, std::bit_cast<std::uint64_t>(agg->value));
  } else if (const auto* hs = std::get_if<HopSampleObservation>(&obs)) {
    p = begin_record(query, kTagHopSample, ctx, kMaxVarintBytes + 8);
    p = put_varint(p, hs->hop);
    p = put_fixed64(p, std::bit_cast<std::uint64_t>(hs->value));
  } else {
    const auto& pd = std::get<PathDigestObservation>(obs);
    p = begin_record(query, kTagPathDigest, ctx, 2 * kMaxVarintBytes + 1);
    p = put_varint(p, pd.resolved_hops);
    p = put_varint(p, pd.path_length);
    *p++ = pd.complete ? 1 : 0;
  }
  end_record(p);
}

void ReportEncoder::add_path(const SinkContext& ctx, std::string_view query,
                             const std::vector<SwitchId>& path) {
  std::uint8_t* p = begin_record(query, kTagPathEvent, ctx,
                                 kMaxVarintBytes * (1 + path.size()));
  p = put_varint(p, path.size());
  for (SwitchId sid : path) p = put_varint(p, sid);
  end_record(p);
}

void ReportEncoder::add(PacketId packet, unsigned k,
                        const SinkReport& report) {
  SinkContext ctx;
  ctx.packet_id = packet;
  ctx.flow = 0;  // a report does not carry per-query flow keys
  ctx.path_length = k;
  for (const QueryObservation& entry : report) {
    add(ctx, entry.query, entry.observation);
  }
}

// Writes records [lo, hi) as one self-contained buffer. The name table is
// rebuilt per range (only the names the range uses, in first-use order), so
// for the full range the output is byte-identical to the historical
// single-buffer format, and each range decodes on its own. The bodies were
// serialized by add(); this writes the header and copies each body behind
// its range-local name index.
std::vector<std::uint8_t> ReportEncoder::encode_range(std::size_t lo,
                                                      std::size_t hi) const {
  constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;
  std::vector<std::uint32_t> local_of(names_.size(), kUnmapped);
  std::vector<std::uint32_t> used;  // global name indices, first-use order
  std::size_t name_bytes = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint32_t g = records_[i].name;
    if (local_of[g] == kUnmapped) {
      local_of[g] = static_cast<std::uint32_t>(used.size());
      used.push_back(g);
      name_bytes += kMaxVarintBytes + names_[g].size();
    }
  }
  const auto body_end = [&](std::size_t i) {
    return i + 1 < records_.size() ? records_[i + 1].offset : body_.size();
  };
  const std::size_t body_bytes =
      lo < hi ? body_end(hi - 1) - records_[lo].offset : 0;

  std::vector<std::uint8_t> out;
  out.reserve(sizeof kMagic + 2 * kMaxVarintBytes + name_bytes +
              kMaxVarintBytes * (hi - lo) + body_bytes);
  for (std::uint8_t byte : kMagic) out.push_back(byte);
  put_varint(out, used.size());
  for (const std::uint32_t g : used) {
    const std::string& name = names_[g];
    put_varint(out, name.size());
    out.insert(out.end(), name.begin(), name.end());
  }
  put_varint(out, hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    put_varint(out, local_of[records_[i].name]);
    out.insert(out.end(), body_.begin() + records_[i].offset,
               body_.begin() + body_end(i));
  }
  return out;
}

void ReportEncoder::reset() {
  names_.clear();
  name_index_.clear();
  records_.clear();
  body_.clear();
}

std::vector<std::uint8_t> ReportEncoder::finish() {
  std::vector<std::uint8_t> out = encode_range(0, records_.size());
  reset();
  return out;
}

std::vector<std::vector<std::uint8_t>> ReportEncoder::finish_chunked(
    std::size_t max_records) {
  if (max_records == 0) max_records = 1;
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t lo = 0; lo < records_.size(); lo += max_records) {
    out.push_back(encode_range(lo, std::min(lo + max_records,
                                            records_.size())));
  }
  reset();
  return out;
}

// --- ReportDecoder ----------------------------------------------------------

std::string_view ReportDecoder::intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  interned_.emplace_back(name);
  const std::string_view stable = interned_.back();
  index_.emplace(stable, stable);
  return stable;
}

// Validating zero-copy parse: names stay views into `bytes`, records land
// in flyweight scratch, path elements pack into one pooled vector. Nothing
// is interned and no observer sees anything until the whole buffer
// validates — interning rejected buffers would let malformed input grow
// the decoder's name storage without bound, and partial dispatch would
// leak phantom records downstream.
bool ReportDecoder::parse(std::span<const std::uint8_t> bytes) {
  names_scratch_.clear();
  records_scratch_.clear();
  path_pool_.clear();

  Reader in{bytes.data(), bytes.data() + bytes.size()};
  std::string_view magic;
  if (!in.get_bytes(magic, 4) ||
      std::memcmp(magic.data(), kMagic, 4) != 0) {
    return false;
  }

  // Counts come off the wire: cap speculative reserves so a corrupt header
  // cannot force a huge allocation before parsing fails.
  constexpr std::uint64_t kReserveCap = 4096;

  std::uint64_t name_count = 0;
  if (!in.get_varint(name_count)) return false;
  names_scratch_.reserve(std::min(name_count, kReserveCap));
  for (std::uint64_t i = 0; i < name_count; ++i) {
    std::uint64_t len = 0;
    std::string_view raw;
    if (!in.get_varint(len) || !in.get_bytes(raw, len)) return false;
    names_scratch_.push_back(raw);
  }

  std::uint64_t record_count = 0;
  if (!in.get_varint(record_count)) return false;
  records_scratch_.reserve(std::min(record_count, kReserveCap));
  for (std::uint64_t i = 0; i < record_count; ++i) {
    std::uint64_t name_index = 0;
    CompactRecord rec;
    std::uint64_t packet_id = 0;
    std::uint64_t k = 0;
    if (!in.get_varint(name_index) || name_index >= names_scratch_.size() ||
        !in.get_byte(rec.tag) || !in.get_varint(packet_id) ||
        !in.get_fixed64(rec.ctx.flow) || !in.get_varint(k)) {
      return false;
    }
    rec.name = static_cast<std::uint32_t>(name_index);
    rec.ctx.packet_id = packet_id;
    rec.ctx.path_length = static_cast<unsigned>(k);
    switch (rec.tag) {
      case kTagAggregate:
        if (!in.get_fixed64(rec.a)) return false;
        break;
      case kTagHopSample:
        if (!in.get_varint(rec.a) || !in.get_fixed64(rec.b)) return false;
        break;
      case kTagPathDigest:
        if (!in.get_varint(rec.a) || !in.get_varint(rec.b) ||
            !in.get_byte(rec.flag)) {
          return false;
        }
        break;
      case kTagPathEvent: {
        std::uint64_t count = 0;
        if (!in.get_varint(count)) return false;
        rec.path_off = static_cast<std::uint32_t>(path_pool_.size());
        for (std::uint64_t j = 0; j < count; ++j) {
          std::uint64_t sid = 0;
          if (!in.get_varint(sid)) return false;
          path_pool_.push_back(static_cast<SwitchId>(sid));
        }
        rec.path_len = static_cast<std::uint32_t>(count);
        break;
      }
      default:
        return false;
    }
    records_scratch_.push_back(rec);
  }
  return in.p == in.end;  // trailing bytes: not one of our buffers
}

namespace {

Observation make_observation(std::uint8_t tag, std::uint64_t a,
                             std::uint64_t b, std::uint8_t flag) {
  switch (tag) {
    case kTagHopSample:
      return HopSampleObservation{static_cast<HopIndex>(a),
                                  std::bit_cast<double>(b)};
    case kTagPathDigest:
      return PathDigestObservation{static_cast<unsigned>(a),
                                   static_cast<unsigned>(b), flag != 0};
    default:  // kTagAggregate (parse() admits no other tag here)
      return AggregateObservation{std::bit_cast<double>(a)};
  }
}

}  // namespace

bool ReportDecoder::decode(std::span<const std::uint8_t> bytes,
                           std::vector<StreamRecord>& out) {
  if (!parse(bytes)) return false;
  // Fully validated: intern the names and materialize owning records.
  stable_scratch_.clear();
  stable_scratch_.reserve(names_scratch_.size());
  for (std::string_view name : names_scratch_) {
    stable_scratch_.push_back(intern(name));
  }
  out.reserve(out.size() + records_scratch_.size());
  for (const CompactRecord& rec : records_scratch_) {
    StreamRecord sr;
    sr.ctx = rec.ctx;
    sr.query = stable_scratch_[rec.name];
    if (rec.tag == kTagPathEvent) {
      sr.path_event = true;
      sr.path.assign(path_pool_.begin() + rec.path_off,
                     path_pool_.begin() + rec.path_off + rec.path_len);
    } else {
      sr.observation = make_observation(rec.tag, rec.a, rec.b, rec.flag);
    }
    out.push_back(std::move(sr));
  }
  return true;
}

bool ReportDecoder::dispatch(std::span<const std::uint8_t> bytes,
                             std::span<SinkObserver* const> observers,
                             std::uint64_t* records_out) {
  if (!parse(bytes)) return false;
  // Validated: intern the (few) names, then replay straight from scratch —
  // the only per-record work is the callback itself.
  stable_scratch_.clear();
  stable_scratch_.reserve(names_scratch_.size());
  for (std::string_view name : names_scratch_) {
    stable_scratch_.push_back(intern(name));
  }
  for (const CompactRecord& rec : records_scratch_) {
    const std::string_view query = stable_scratch_[rec.name];
    if (rec.tag == kTagPathEvent) {
      // on_path_decoded takes a vector; refill one reused buffer (no
      // allocation once its capacity covers the longest path).
      path_call_.assign(path_pool_.begin() + rec.path_off,
                        path_pool_.begin() + rec.path_off + rec.path_len);
      for (SinkObserver* o : observers) {
        o->on_path_decoded(rec.ctx, query, path_call_);
      }
    } else {
      const Observation obs =
          make_observation(rec.tag, rec.a, rec.b, rec.flag);
      for (SinkObserver* o : observers) {
        o->on_observation(rec.ctx, query, obs);
      }
    }
  }
  if (records_out != nullptr) *records_out += records_scratch_.size();
  return true;
}

// --- dispatch ---------------------------------------------------------------

void dispatch(std::span<const StreamRecord> records,
              std::span<SinkObserver* const> observers) {
  for (const StreamRecord& rec : records) {
    if (rec.path_event) {
      for (SinkObserver* o : observers) {
        o->on_path_decoded(rec.ctx, rec.query, rec.path);
      }
    } else {
      for (SinkObserver* o : observers) {
        o->on_observation(rec.ctx, rec.query, rec.observation);
      }
    }
  }
}

}  // namespace pint
