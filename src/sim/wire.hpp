// Field lists for protocol payload structs.
//
// FL_WIRE_FIELDS(Type, field...) — invoked at namespace scope right next
// to the struct it describes — declares which members make up a message's
// content, in order. It generates one inline free function,
//
//   fl_wire_fields(const Type&)  ->  std::tie(v.field...)
//
// found by argument-dependent lookup wherever the type lives (protocol
// payload structs sit in anonymous namespaces inside their .cpp files).
// The list names the members that carry information and never padding, so
// a per-message word count can be derived from the tuple instead of being
// claimed by the protocol. One to 8 fields — every payload struct in the
// repo has at most 4; empty marker structs declare none.
#pragma once

#include <tuple>

#define FL_WIRE_DETAIL_FE_1(M, a) M(a)
#define FL_WIRE_DETAIL_FE_2(M, a, ...) M(a), FL_WIRE_DETAIL_FE_1(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_3(M, a, ...) M(a), FL_WIRE_DETAIL_FE_2(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_4(M, a, ...) M(a), FL_WIRE_DETAIL_FE_3(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_5(M, a, ...) M(a), FL_WIRE_DETAIL_FE_4(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_6(M, a, ...) M(a), FL_WIRE_DETAIL_FE_5(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_7(M, a, ...) M(a), FL_WIRE_DETAIL_FE_6(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_FE_8(M, a, ...) M(a), FL_WIRE_DETAIL_FE_7(M, __VA_ARGS__)
#define FL_WIRE_DETAIL_PICK(_1, _2, _3, _4, _5, _6, _7, _8, NAME, ...) NAME
#define FL_WIRE_DETAIL_FOR_EACH(M, ...)                                      \
  FL_WIRE_DETAIL_PICK(__VA_ARGS__, FL_WIRE_DETAIL_FE_8, FL_WIRE_DETAIL_FE_7, \
                      FL_WIRE_DETAIL_FE_6, FL_WIRE_DETAIL_FE_5,              \
                      FL_WIRE_DETAIL_FE_4, FL_WIRE_DETAIL_FE_3,              \
                      FL_WIRE_DETAIL_FE_2, FL_WIRE_DETAIL_FE_1)              \
  (M, __VA_ARGS__)

#define FL_WIRE_DETAIL_MEMBER(f) v.f

#define FL_WIRE_FIELDS(Type, ...)                                     \
  [[maybe_unused]] inline auto fl_wire_fields(const Type& v) {        \
    return std::tie(                                                  \
        FL_WIRE_DETAIL_FOR_EACH(FL_WIRE_DETAIL_MEMBER, __VA_ARGS__)); \
  }                                                                   \
  static_assert(true, "FL_WIRE_FIELDS needs a trailing semicolon")
