#include "pint/static_aggregation.h"

#include <stdexcept>

namespace pint {

SchemeConfig make_scheme(SchemeVariant variant, unsigned d) {
  switch (variant) {
    case SchemeVariant::kBaseline:
      return make_baseline_scheme();
    case SchemeVariant::kXor:
      return make_xor_scheme(d);
    case SchemeVariant::kHybrid:
      return make_hybrid_scheme(d);
    case SchemeVariant::kMultiLayer:
      return make_multilayer_scheme(d);
    case SchemeVariant::kMultiLayerRevised:
      return make_multilayer_scheme_revised(d);
  }
  throw std::invalid_argument("unknown scheme variant");
}

PathTracingQuery::PathTracingQuery(PathTracingConfig config,
                                   std::uint64_t seed)
    : config_(config),
      scheme_(make_scheme(config.variant, config.d)),
      root_(seed) {
  if (config.bits == 0 || config.bits > 64)
    throw std::invalid_argument("bits in [1,64]");
  if (config.instances == 0) throw std::invalid_argument("instances > 0");
  hashes_.reserve(config.instances);
  for (unsigned inst = 0; inst < config.instances; ++inst) {
    hashes_.push_back(make_instance_hashes(root_, inst));
  }
}

void PathTracingQuery::encode(PacketId packet, HopIndex i, SwitchId sid,
                              std::span<Digest> lanes) const {
  if (lanes.size() != config_.instances)
    throw std::invalid_argument("one lane per instance expected");
  for (unsigned inst = 0; inst < config_.instances; ++inst) {
    lanes[inst] = encode_step(scheme_, hashes_[inst], packet, i, lanes[inst],
                              sid, config_.bits);
  }
}

HashedPathDecoder PathTracingQuery::make_decoder(
    unsigned k, HashedPathDecoder::Universe universe) const {
  HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = config_.bits;
  cfg.instances = config_.instances;
  cfg.scheme = scheme_;
  return HashedPathDecoder(cfg, root_, std::move(universe));
}

HashedPathDecoder PathTracingQuery::make_decoder(
    unsigned k, std::vector<std::uint64_t> universe) const {
  return make_decoder(k, std::make_shared<const std::vector<std::uint64_t>>(
                             std::move(universe)));
}

}  // namespace pint
