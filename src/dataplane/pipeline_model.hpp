// Guarded control-flow IR for a data-plane program: the one declaration a
// program makes about itself. The symbolic model checker
// (src/analysis/model.*, checker.*) explores it to *prove* pipeline-wide
// properties — verify-before-emit, secret-flow safety, authenticated key
// installs, per-path stage budgets — and declaration() derives the
// ProgramDeclaration the resource model, the static checks and the
// conformance audit read, so the two can never disagree.
//
// The IR is a graph of ModelNodes connected by guarded ModelBranches.
// Node 0 is the entry (the parser). Each node is one pipeline construct:
// a parse step, a match-action table apply, a register read/write
// effect, a digest-verify / digest-compute extern call, or a terminal
// (emit / punt-to-CPU / drop / consume). Branches carry symbolic
// conditions (ModelCond) over named boolean atoms — header validity,
// table hit/miss, verify outcomes — and the path explorer rejects any
// path that would require an atom to be both true and false. Table
// nodes carry the TableShape and register nodes the RegisterShape they
// bill; the model itself carries the program's hash uses and PHV bits.
//
// Conventions the checker relies on (documented in docs/ANALYSIS.md):
//  * a branch labelled "ok" out of a DigestVerify node is the successful
//    verification edge; it implies atom `verify.<object>` = true. The
//    "fail" edge implies false.
//  * Emit nodes with `protected_port` carry a frame class that must only
//    cross a P4Auth-protected link authenticated (DpData, port-scope
//    KMP). Discovery/raw traffic emits leave the flag clear.
//  * A RegisterRead of a secret register (RegisterShape::secret, taken
//    from RegisterArray::secret()) taints the path (key material in
//    flight); DigestVerify/DigestCompute declassify (the key is consumed
//    as a MAC key, not copied into output bytes).
//  * A RegisterWrite to a secret register is a key-store install; the
//    checker requires a successful verify earlier on every such path.
//  * Emit/Punt nodes with `multi` model runtime replication (probe
//    flooding, LLDP announce): they match one-or-more observed outputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/register_file.hpp"
#include "dataplane/resources.hpp"
#include "dataplane/table.hpp"

namespace p4auth::dataplane {

/// One symbolic condition: `atom` must equal `value` on this edge.
struct ModelCond {
  std::string atom;
  bool value = true;
};

enum class ModelNodeKind : std::uint8_t {
  Parse,          ///< parser step; branches select header alternatives
  Table,          ///< match-action table apply (observable via note_table)
  RegisterRead,   ///< stateful register read effect
  RegisterWrite,  ///< stateful register write effect
  DigestVerify,   ///< digest-verify extern (observable via note_verify)
  DigestCompute,  ///< digest/KDF compute extern (tagging, key derivation)
  Emit,           ///< frame leaves on a data port
  Punt,           ///< PacketIn to the controller CPU port
  Drop,           ///< terminal: packet dropped
  Consume,        ///< terminal: absorbed without drop (sink/aggregate)
};

std::string_view model_node_kind_name(ModelNodeKind kind) noexcept;

struct ModelBranch {
  std::size_t target = 0;
  std::string label;            ///< "hit"/"miss"/"ok"/"fail"/parse alternative
  std::vector<ModelCond> when;  ///< conjunction assumed along this edge
};

struct ModelNode {
  ModelNodeKind kind = ModelNodeKind::Drop;
  /// Table/register name, verify/digest label, or emit port class.
  std::string object;
  TableShape table;             ///< Table: the shape declaration() bills
  RegisterShape reg;            ///< RegisterRead/Write: the array touched
  bool protected_port = false;  ///< Emit: authenticated-class frame on a P4Auth link
  bool multi = false;           ///< Emit/Punt: replicated 1..N times at runtime
  int stage_cost = 0;           ///< match-action stages this node occupies
  int hash_cost = 0;            ///< hash-distribution units billed here
  int register_cost = 0;        ///< register accesses billed here
  std::vector<ModelBranch> next;  ///< empty == terminal
};

/// The model itself plus a small builder API; apps assemble it in
/// pipeline_model() from the tables and registers they own.
class PipelineModel {
 public:
  std::string name;
  std::vector<ModelNode> nodes;  ///< node 0 is the entry
  std::vector<HashUse> hash_uses;
  int header_phv_bits = 0;
  int metadata_phv_bits = 0;

  bool empty() const noexcept { return nodes.empty(); }

  /// The program's resource declaration: tables and registers from the
  /// nodes in node order, plus the hash uses and PHV bits. A shape named
  /// by several nodes is declared once; two different shapes under one
  /// name are both kept, so decl-duplicate-* flags the conflict.
  ProgramDeclaration declaration() const;

  /// Appends a node; returns its index.
  std::size_t add(ModelNode node);

  /// Appends `node` and links `from` -> it; returns the new index.
  std::size_t then(std::size_t from, ModelNode node, std::string label = {},
                   std::vector<ModelCond> when = {});

  /// Adds an edge `from` -> `to`.
  void branch(std::size_t from, std::size_t to, std::string label = {},
              std::vector<ModelCond> when = {});

  /// Imports every node of `inner` (index-shifted) plus its hash uses and
  /// PHV bits; returns the offset of its entry so the host model can
  /// branch into it. Used by wrapper programs (the P4Auth agent) to embed
  /// the wrapped program's model.
  std::size_t splice(const PipelineModel& inner);

  // --- node factories -------------------------------------------------------
  static ModelNode parse(std::string object);
  static ModelNode table(TableShape shape);
  /// Register effects on a real array: size and secrecy come from it.
  static ModelNode reg_read(const RegisterArray& reg, int accesses = 1);
  static ModelNode reg_write(const RegisterArray& reg, int accesses = 1);
  /// Register effects on notional state with no backing array.
  static ModelNode reg_read(RegisterShape shape, int accesses = 1);
  static ModelNode reg_write(RegisterShape shape, int accesses = 1);
  static ModelNode verify(std::string label);
  static ModelNode digest(std::string label);
  static ModelNode emit(std::string port_class, bool protected_port = false,
                        bool multi = false);
  static ModelNode punt(bool multi = false);
  static ModelNode drop();
  static ModelNode consume();
};

}  // namespace p4auth::dataplane
