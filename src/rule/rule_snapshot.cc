#include "rule/rule_snapshot.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <span>

#include "common/binary_io.h"
#include "rule/match_delta.h"

namespace gpar {

namespace {

// "GPARRULE", little-endian.
constexpr uint64_t kRuleMagic = 0x454c555241525047ull;
constexpr uint32_t kRuleVersion = 1;
constexpr uint32_t kRuleVersionV2 = 2;
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8;

void PutRecords(const std::vector<RuleRecord>& rules, const Interner& labels,
                std::string* payload) {
  PutU32(payload, static_cast<uint32_t>(rules.size()));
  for (const RuleRecord& r : rules) {
    PutU64(payload, r.supp);
    PutF64(payload, r.conf);
    PutString(payload, r.rule.Serialize(labels));
  }
}

void PutNodeList(std::string* payload, std::span<const NodeId> nodes) {
  PutU32(payload, static_cast<uint32_t>(nodes.size()));
  for (NodeId v : nodes) PutU32(payload, v);
}

void PutEvidence(const RuleSetEvidence& e, const Interner& labels,
                 std::string* payload) {
  PutString(payload, e.setup.x_label);
  PutString(payload, e.setup.edge_label);
  PutString(payload, e.setup.y_label);
  PutU32(payload, e.setup.k);
  PutU32(payload, e.setup.d);
  PutU64(payload, e.setup.sigma);
  PutF64(payload, e.setup.lambda);
  PutU32(payload, e.setup.max_pattern_edges);
  PutU64(payload, e.setup.seed_edge_limit);
  PutU64(payload, e.setup.max_candidates_per_round);
  PutU32(payload, e.setup.bool_flags);
  PutNodeList(payload, e.q_pool);
  PutNodeList(payload, e.qbar_pool);
  PutU32(payload, static_cast<uint32_t>(e.entries.size()));
  for (size_t i = 0; i < e.entries.size(); ++i) {
    const EvidenceEntry& ent = e.entries[i];
    PutString(payload, ent.rule.Serialize(labels));
    PutU32(payload, ent.parent);
    payload->push_back(ent.ant_probed ? 1 : 0);
    const EvidenceEntry* parent =
        ent.parent == kEvidenceRoot ? nullptr : &e.entries[ent.parent];
    PutMatchSetDelta(
        payload, EncodeMatchSet(ent.pr_matches,
                                parent ? parent->pr_matches : e.q_pool));
    PutMatchSetDelta(
        payload, EncodeMatchSet(ent.ant_matches,
                                parent ? parent->ant_matches : e.qbar_pool));
  }
}

Status WriteFramed(uint32_t version, const std::string& payload,
                   std::ostream& os) {
  std::string header;
  PutU64(&header, kRuleMagic);
  PutU32(&header, version);
  PutU64(&header, payload.size());
  PutU64(&header, Fnv1a64(payload));
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!os) return Status::IoError("rule snapshot write failed");
  return Status::OK();
}

Status ReadRecords(ByteReader* r, Interner* labels,
                   std::vector<RuleRecord>* out) {
  uint32_t count;
  if (!r->ReadU32(&count)) {
    return Status::Corruption("rule snapshot: bad rule count");
  }
  // Untrusted count: each record is at least 20 bytes.
  if (uint64_t{count} * 20 > r->remaining()) {
    return Status::Corruption("rule snapshot: bad rule count");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RuleRecord rec;
    std::string text;
    if (!r->ReadU64(&rec.supp) || !r->ReadF64(&rec.conf) ||
        !r->ReadString(&text)) {
      return Status::Corruption("rule snapshot: truncated rule record");
    }
    GPAR_ASSIGN_OR_RETURN(rec.rule, Gpar::Parse(text, labels));
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

Status ReadNodeList(ByteReader* r, const char* what,
                    std::vector<NodeId>* out) {
  uint32_t count;
  if (!r->ReadU32(&count) || uint64_t{count} * 4 > r->remaining()) {
    return Status::Corruption(std::string("rule snapshot: bad ") + what +
                              " length");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t v;
    if (!r->ReadU32(&v)) {
      return Status::Corruption(std::string("rule snapshot: truncated ") +
                                what);
    }
    out->push_back(v);
  }
  return Status::OK();
}

Status ReadEvidence(ByteReader* r, Interner* labels, RuleSetEvidence* out) {
  MiningSetup& s = out->setup;
  if (!r->ReadString(&s.x_label) || !r->ReadString(&s.edge_label) ||
      !r->ReadString(&s.y_label) || !r->ReadU32(&s.k) || !r->ReadU32(&s.d) ||
      !r->ReadU64(&s.sigma) || !r->ReadF64(&s.lambda) ||
      !r->ReadU32(&s.max_pattern_edges) || !r->ReadU64(&s.seed_edge_limit) ||
      !r->ReadU64(&s.max_candidates_per_round) ||
      !r->ReadU32(&s.bool_flags)) {
    return Status::Corruption("rule snapshot: truncated mining setup");
  }
  GPAR_RETURN_NOT_OK(ReadNodeList(r, "q pool", &out->q_pool));
  GPAR_RETURN_NOT_OK(ReadNodeList(r, "qbar pool", &out->qbar_pool));
  uint32_t count;
  if (!r->ReadU32(&count) || uint64_t{count} * 14 > r->remaining()) {
    return Status::Corruption("rule snapshot: bad evidence entry count");
  }
  out->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EvidenceEntry ent;
    std::string text;
    uint8_t ant_probed;
    MatchSetDelta pr_delta, ant_delta;
    if (!r->ReadString(&text) || !r->ReadU32(&ent.parent) ||
        !r->ReadU8(&ant_probed) || !ReadMatchSetDelta(r, &pr_delta) ||
        !ReadMatchSetDelta(r, &ant_delta)) {
      return Status::Corruption("rule snapshot: truncated evidence entry");
    }
    if (ent.parent != kEvidenceRoot && ent.parent >= i) {
      return Status::Corruption(
          "rule snapshot: evidence entry " + std::to_string(i) +
          " references parent " + std::to_string(ent.parent) +
          " at or after itself");
    }
    GPAR_ASSIGN_OR_RETURN(ent.rule, Gpar::Parse(text, labels));
    ent.ant_probed = ant_probed != 0;
    const EvidenceEntry* parent =
        ent.parent == kEvidenceRoot ? nullptr : &out->entries[ent.parent];
    GPAR_ASSIGN_OR_RETURN(
        ent.pr_matches,
        DecodeMatchSet(pr_delta, parent ? parent->pr_matches : out->q_pool));
    GPAR_ASSIGN_OR_RETURN(
        ent.ant_matches,
        DecodeMatchSet(ant_delta,
                       parent ? parent->ant_matches : out->qbar_pool));
    out->entries.push_back(std::move(ent));
  }
  return Status::OK();
}

}  // namespace

Status WriteRuleSetSnapshot(const std::vector<RuleRecord>& rules,
                            const Interner& labels, std::ostream& os) {
  std::string payload;
  PutRecords(rules, labels, &payload);
  return WriteFramed(kRuleVersion, payload, os);
}

Status WriteRuleSetSnapshotFile(const std::vector<RuleRecord>& rules,
                                const Interner& labels,
                                const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path);
  return WriteRuleSetSnapshot(rules, labels, os);
}

Status WriteRuleSetSnapshotV2(const std::vector<RuleRecord>& rules,
                              const RuleSetEvidence& evidence,
                              const Interner& labels, std::ostream& os) {
  std::string payload;
  PutRecords(rules, labels, &payload);
  PutEvidence(evidence, labels, &payload);
  return WriteFramed(kRuleVersionV2, payload, os);
}

Status WriteRuleSetSnapshotV2File(const std::vector<RuleRecord>& rules,
                                  const RuleSetEvidence& evidence,
                                  const Interner& labels,
                                  const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path);
  return WriteRuleSetSnapshotV2(rules, evidence, labels, os);
}

Result<RuleSetSnapshot> ReadRuleSetSnapshotAny(std::istream& is,
                                               Interner* labels) {
  std::string header(kHeaderBytes, '\0');
  is.read(header.data(), static_cast<std::streamsize>(kHeaderBytes));
  if (is.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    return Status::Corruption("rule snapshot: truncated header");
  }
  ByteReader hr(header);
  uint64_t magic = 0, payload_size = 0, checksum = 0;
  uint32_t version = 0;
  if (!hr.ReadU64(&magic) || !hr.ReadU32(&version) ||
      !hr.ReadU64(&payload_size) || !hr.ReadU64(&checksum)) {
    return Status::Corruption("rule snapshot: truncated header");
  }
  if (magic != kRuleMagic) {
    return Status::Corruption("rule snapshot: bad magic");
  }
  if (version != kRuleVersion && version != kRuleVersionV2) {
    return Status::Corruption("rule snapshot: unsupported version " +
                              std::to_string(version));
  }
  // Untrusted sizes: bounded-chunk payload read, and no container sized
  // from a count alone (see the per-section bounds below).
  std::string payload;
  GPAR_RETURN_NOT_OK(
      ReadSizedPayload(is, payload_size, "rule snapshot", &payload));
  if (Fnv1a64(payload) != checksum) {
    return Status::Corruption("rule snapshot: checksum mismatch");
  }

  ByteReader r(payload);
  RuleSetSnapshot out;
  GPAR_RETURN_NOT_OK(ReadRecords(&r, labels, &out.rules));
  if (version == kRuleVersionV2) {
    out.has_evidence = true;
    GPAR_RETURN_NOT_OK(ReadEvidence(&r, labels, &out.evidence));
  }
  if (!r.exhausted()) {
    return Status::Corruption("rule snapshot: trailing bytes in payload");
  }
  return out;
}

Result<RuleSetSnapshot> ReadRuleSetSnapshotAnyFile(const std::string& path,
                                                   Interner* labels) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open " + path);
  return ReadRuleSetSnapshotAny(is, labels);
}

}  // namespace gpar
