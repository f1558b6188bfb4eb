// Per-connection application state shared with scheduler closures.
//
// A server's pump or a trace flow's timers capture a shared_ptr to their
// connection's state, so the closures a scheduler snapshot clones point at
// the very objects the app holds. A snapshot therefore pairs each object
// with a copy of its value, and restore writes the value back INTO the same
// object: every closure cloned from the snapshot observes the rewound state.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace snake::apps {

template <typename T>
class SharedStates {
 public:
  struct Entry {
    std::shared_ptr<T> object;
    T value;
  };
  using Snapshot = std::vector<Entry>;

  /// Appends a fresh state object and returns it.
  std::shared_ptr<T> add() {
    objects_.push_back(std::make_shared<T>());
    return objects_.back();
  }

  std::size_t size() const { return objects_.size(); }
  const std::shared_ptr<T>& operator[](std::size_t i) const { return objects_[i]; }
  auto begin() const { return objects_.begin(); }
  auto end() const { return objects_.end(); }

  Snapshot capture() const {
    Snapshot snap;
    snap.reserve(objects_.size());
    for (const auto& object : objects_) snap.push_back(Entry{object, *object});
    return snap;
  }

  /// Objects added after the capture drop out of the registry; the closures
  /// that held them were discarded with the scheduler state they lived in.
  void restore(const Snapshot& snap) {
    objects_.clear();
    for (const Entry& entry : snap) {
      *entry.object = entry.value;
      objects_.push_back(entry.object);
    }
  }

 private:
  std::vector<std::shared_ptr<T>> objects_;
};

}  // namespace snake::apps
