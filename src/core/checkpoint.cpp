#include "core/checkpoint.hpp"

#include <stdexcept>

namespace coca::core {

std::string queue_to_json(const CarbonDeficitQueue& queue) {
  return "{\"q\":" + obs::json_number(queue.length()) + '}';
}

void queue_from_json(const obs::JsonValue& fragment,
                     CarbonDeficitQueue& queue) {
  queue.restore(fragment.at("q").as_double());
}

std::string render_checkpoint(const std::string& controller,
                              std::size_t upto_slot,
                              const std::string& state_fields) {
  std::string out = "{\"schema\":\"";
  out += kCheckpointSchema;
  out += "\",\"controller\":\"";
  out += obs::json_escape(controller);
  out += "\",\"slot\":";
  out += obs::json_number(static_cast<std::int64_t>(upto_slot));
  out += state_fields;
  out += '}';
  return out;
}

obs::JsonValue parse_checkpoint(const std::string& blob,
                                const std::string& expected_controller) {
  obs::JsonValue doc = obs::parse_json(blob);
  if (!doc.is_object()) {
    throw std::runtime_error("coca-ckpt: blob is not a JSON object");
  }
  if (doc.at("schema").as_string() != kCheckpointSchema) {
    throw std::runtime_error("coca-ckpt: unknown schema " +
                             doc.at("schema").as_string());
  }
  if (doc.at("controller").as_string() != expected_controller) {
    throw std::runtime_error(
        "coca-ckpt: checkpoint belongs to controller '" +
        doc.at("controller").as_string() + "', expected '" +
        expected_controller + "'");
  }
  return doc;
}

}  // namespace coca::core
