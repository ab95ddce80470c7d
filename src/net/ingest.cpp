#include "src/net/ingest.hpp"

#include <utility>

#include "src/common/error.hpp"

namespace wivi::net {

std::optional<rt::SessionId> EngineBinding::bind(std::uint32_t sensor_id) {
  // Callers hold mu_.
  const auto it = sessions_.find(sensor_id);
  if (it != sessions_.end()) return it->second;
  rt::SessionId id;
  try {
    id = engine_.open_session(cfg_.spec, cfg_.ingest);
  } catch (const TypedError& e) {
    if (e.code() != ErrorCode::kOverload) throw;
    return std::nullopt;  // session table full: the sensor is refused
  }
  sessions_.emplace(sensor_id, id);
  closed_.emplace(sensor_id, false);
  return id;
}

bool EngineBinding::deliver(std::uint32_t sensor_id,
                            std::uint64_t /*chunk_seq*/, CVec&& chunk) {
  std::optional<rt::SessionId> id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto c = closed_.find(sensor_id); c != closed_.end() && c->second)
      return false;  // stream already ended; late chunk refused
    id = bind(sensor_id);
  }
  return id && engine_.offer(*id, std::move(chunk));
}

void EngineBinding::end(std::uint32_t sensor_id) {
  rt::SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // An end with no data still resolves the session — unless the sensor
    // was refused a session, which leaves nothing to close.
    const std::optional<rt::SessionId> bound = bind(sensor_id);
    if (!bound) return;
    bool& closed = closed_[sensor_id];
    if (closed || !cfg_.close_on_end) return;
    closed = true;
    id = *bound;
  }
  engine_.close_session(id);
}

std::optional<rt::SessionId> EngineBinding::session(
    std::uint32_t sensor_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(sensor_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

std::size_t EngineBinding::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void EngineBinding::close_all() {
  std::vector<rt::SessionId> to_close;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [sensor, closed] : closed_) {
      if (!closed) {
        closed = true;
        to_close.push_back(sessions_.at(sensor));
      }
    }
  }
  for (rt::SessionId id : to_close) engine_.close_session(id);
}

}  // namespace wivi::net
