#include "teamsim/graphviz.hpp"

#include <sstream>

#include "util/table.hpp"

namespace adpm::teamsim {

namespace {

std::string escape(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* statusColor(constraint::Status s) {
  switch (s) {
    case constraint::Status::Satisfied: return "palegreen";
    case constraint::Status::Violated: return "salmon";
    case constraint::Status::Consistent: return "lightgrey";
  }
  return "white";
}

}  // namespace

std::string toGraphviz(const dpm::DesignProcessManager& dpm) {
  const constraint::Network& net = dpm.network();
  std::ostringstream out;
  out << "graph constraint_network {\n";
  out << "  graph [overlap=false, splines=true];\n";
  out << "  node [fontname=\"Helvetica\", fontsize=10];\n";

  // One cluster per design object keeps subsystems visually grouped — the
  // cross-subsystem constraints (spin material) are the edges that leave a
  // cluster.
  std::size_t clusterIndex = 0;
  for (const std::string& objName : dpm.objectNames()) {
    const dpm::DesignObject* obj = dpm.object(objName);
    out << "  subgraph cluster_" << clusterIndex++ << " {\n";
    out << "    label=\"" << escape(objName) << "\";\n";
    const std::string owner = dpm.ownerOfObject(objName);
    if (!owner.empty()) {
      out << "    tooltip=\"owner: " << escape(owner) << "\";\n";
    }
    for (const constraint::PropertyId pid : obj->properties) {
      const constraint::Property& p = net.property(pid);
      out << "    p" << pid.value << " [label=\"" << escape(p.name);
      if (p.bound()) out << "\\n= " << util::formatNumber(*p.value, 4);
      out << "\", shape=ellipse";
      if (p.bound()) out << ", style=filled, fillcolor=lightyellow";
      out << "];\n";
    }
    out << "  }\n";
  }

  const auto& statuses = dpm.knownStatuses();
  for (const constraint::ConstraintId cid : net.constraintIds()) {
    const constraint::Constraint& c = net.constraint(cid);
    const bool active = net.isActive(cid);
    out << "  c" << cid.value << " [label=\"" << escape(c.name())
        << "\", shape=box, style=\"" << (active ? "filled" : "dashed")
        << "\"";
    if (active) {
      out << ", fillcolor=" << statusColor(statuses[cid.value]);
    }
    out << "];\n";
    for (const constraint::PropertyId arg : c.arguments()) {
      out << "  c" << cid.value << " -- p" << arg.value << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace adpm::teamsim
